"""Self-tests of the benchmark of record; ``python -m pytest benchmarks/record -q``.

They run the ``--quick`` shapes, so they exercise the validator, the
determinism guard and the traced run in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import validator
import workloads
from repro.engine import ExecutionEngine

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
SEED = 5


@pytest.fixture(scope="module")
def planned():
    """A quick paper_failover plan with everything the validator needs."""
    spec = workloads.workload("paper_failover", quick=True)
    demands = workloads.build_demands(spec, SEED)
    framework = workloads.build_framework(spec)
    policy = workloads.policy()
    plan = framework.plan(demands, policy, plan_failures=True)
    return plan, demands, policy, framework.pool


def problems_of(planned, plan):
    _, demands, policy, pool = planned
    return validator.validate_plan(plan, demands, policy, pool, sample_seed=SEED)


def with_consolidation(plan, **changes):
    return replace(plan, consolidation=replace(plan.consolidation, **changes))


def test_validator_accepts_a_real_plan(planned):
    assert problems_of(planned, planned[0]) == []


def test_validator_catches_a_workload_placed_twice(planned):
    plan = planned[0]
    assignment = dict(plan.consolidation.assignment)
    first, second = list(assignment)[:2]
    assignment[second] = assignment[second] + assignment[first][:1]
    problems = problems_of(planned, with_consolidation(plan, assignment=assignment))
    assert any("is on 2 servers" in problem for problem in problems)


def test_validator_catches_a_dropped_workload(planned):
    plan = planned[0]
    assignment = dict(plan.consolidation.assignment)
    server = next(iter(assignment))
    assignment[server] = assignment[server][1:]
    problems = problems_of(planned, with_consolidation(plan, assignment=assignment))
    assert any("is on 0 servers" in problem for problem in problems)


def test_validator_catches_an_over_capacity_server(planned):
    plan = planned[0]
    required = dict(plan.consolidation.required_by_server)
    server = next(iter(required))
    required[server] = workloads.SERVER_CPUS + 0.5
    problems = problems_of(
        planned, with_consolidation(plan, required_by_server=required)
    )
    assert any(f"{server!r} requires" in problem for problem in problems)


def test_validator_catches_an_understated_required_capacity(planned):
    """Every used server is sampled in the quick shape, so the oracle sees it."""
    plan = planned[0]
    required = {
        server: value * 0.8
        for server, value in plan.consolidation.required_by_server.items()
    }
    problems = problems_of(
        planned,
        with_consolidation(
            plan, required_by_server=required, sum_required=sum(required.values())
        ),
    )
    assert any("the scalar search" in problem for problem in problems)
    assert any("theta" in problem or "CoS1" in problem for problem in problems)


def test_validator_catches_a_placement_on_a_failed_server(planned):
    plan = planned[0]
    cases = list(plan.failure_report.cases)
    case = next(case for case in cases if case.feasible)
    failed = case.failed_servers[0]
    survivor = next(iter(case.result.assignment))
    assignment = dict(case.result.assignment)
    required = dict(case.result.required_by_server)
    assignment[failed] = assignment.pop(survivor)
    required[failed] = required.pop(survivor)
    bad = replace(
        case,
        result=replace(
            case.result, assignment=assignment, required_by_server=required
        ),
    )
    cases[cases.index(case)] = bad
    corrupted = replace(
        plan, failure_report=replace(plan.failure_report, cases=tuple(cases))
    )
    problems = problems_of(planned, corrupted)
    assert any(f"unavailable server {failed!r}" in problem for problem in problems)


def test_determinism_guard_reports_a_drifted_hash_with_both_values(planned, capsys):
    plan = planned[0]
    ledger = harness.PlanLedger(lambda _: [], "test")
    ledger.attempt("cold", lambda: plan)
    moved = dict(plan.consolidation.assignment)
    first, second = list(moved)[:2]
    moved[first], moved[second] = moved[second], moved[first]
    ledger.attempt("timed[0]", lambda: with_consolidation(plan, assignment=moved))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.valid_share == pytest.approx(0.5)
    reported = capsys.readouterr().err
    assert "plan_hash" in reported
    assert plan.plan_hash() in reported  # the first plan's value, next to the new one


def test_determinism_guard_catches_a_drifted_counter(planned):
    plan = planned[0]
    counters = dict(plan.counters)
    counters["kernel.rows"] += 1
    drift = harness.PlanDigest.of(replace(plan, counters=counters)).differences(
        harness.PlanDigest.of(plan)
    )
    assert len(drift) == 1 and "counter:kernel.rows" in drift[0]


def test_a_plan_that_raises_counts_as_failed():
    ledger = harness.PlanLedger(lambda _: [], "test")

    def explode():
        raise ValueError("no plan")

    assert ledger.attempt("cold", explode) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_a_parallel_engine_is_refused():
    spec = workloads.workload("pool_mono", quick=True)
    with ExecutionEngine.with_workers(2) as engine:
        with pytest.raises(RuntimeError, match="one process and one thread"):
            workloads.build_framework(spec, engine=engine)


@pytest.mark.parametrize("name", ["paper_failover", "pool_mono"])
def test_seed_reorders_whole_periods_only(name):
    spec = workloads.workload(name, quick=True)
    base = workloads.build_demands(spec, 1)
    again = workloads.build_demands(spec, 1)
    other = workloads.build_demands(spec, 2)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(base, again))
    assert any(not np.array_equal(a.values, b.values) for a, b in zip(base, other))
    periods = spec.weeks if spec.weeks > 1 else 7
    for a, b in zip(base, other):
        assert a.name == b.name
        rows_a = {row.tobytes() for row in a.values.reshape(periods, -1)}
        rows_b = {row.tobytes() for row in b.values.reshape(periods, -1)}
        assert rows_a == rows_b


def test_another_ensemble_seed_is_another_valid_planning_problem():
    quick = dict(seed=SEED, seconds=1.0, trace=False, quick=True)
    first = harness.run_workload("pool_sharded", **quick)
    other = harness.run_workload("pool_sharded", ensemble_seed=2007, **quick)
    assert first["failed"] == other["failed"] == 0
    assert other["ensemble_seed"] == 2007
    assert first["plan_hash"] != other["plan_hash"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quick_run_reports_every_metric_by_name(name, tmp_path):
    result = harness.run_workload(
        name,
        seed=SEED,
        seconds=1.0,
        trace=True,
        quick=True,
        spans_path=tmp_path / "spans.jsonl",
    )
    assert result["comparable"] is False
    assert result["failed"] == 0 and result["probe_problems"] == []
    assert result["attempted"] == 3  # cold, one timed repeat, traced
    for section in ("end_to_end", "per_layer"):
        declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
        reported = {
            name: entry["unit"] for name, entry in result[section].items()
        }
        assert reported == declared
    assert result["end_to_end"]["valid_plan_share"]["value"] == pytest.approx(1.0)
    spans = [
        json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()
    ]
    root = spans[0]
    assert root["name"] == "framework.plan" and root["parent"] is None
    assert all(span["workload"] == name for span in spans)
    assert {span["kind"] for span in spans} == {"pipeline", "probe"}
    assert all(span["end"] >= span["start"] for span in spans)
    # the pooled probe's resource tracker is stopped and waited for
    assert resource_tracker._resource_tracker._fd is None


def test_the_contract_file_names_the_workloads_with_their_reasons():
    assert BENCHMARK["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in workloads.WORKLOADS.values()
    ]
    assert BENCHMARK["paths"] == ["benchmarks/record"]


def _run(directory: Path, *extra: str) -> subprocess.CompletedProcess:
    """Run the command line in a session of its own, which it must leave empty."""
    command = [
        sys.executable,
        "benchmarks/record/run.py",
        "--workload", "year_long",
        "--seed", "9",
        "--seconds", "1",
        *extra,
    ]
    with subprocess.Popen(
        command,
        cwd=directory,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as process:
        stdout, stderr = process.communicate(timeout=170)
    assert _session_members(process.pid) == []
    return subprocess.CompletedProcess(command, process.returncode, stdout, stderr)


def _session_members(session: int) -> list[str]:
    """Command lines of the live processes of one session, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            fields = stat.rsplit(")", 1)[1].split()
            if int(fields[3]) == session and fields[0] != "Z":
                found.append(Path("/proc", entry, "cmdline").read_text())
        except (OSError, IndexError):
            continue
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_prints_the_contract_line_last(trace, tmp_path):
    done = _run(REPO_ROOT, "--trace", trace, "--quick", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert "killed leftover" not in done.stderr
    last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(last["metrics"]) == {entry["name"] for entry in BENCHMARK[section]}
    document = json.loads((tmp_path / f"year_long-seed9-trace{trace}.json").read_text())
    assert document["environment"]["thread_pins"] == {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    assert document["seed"] == 9 and document["ensemble_seed"] == 2006


def test_command_line_fails_without_the_source_tree(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "record",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def _document(workload: str, seed: int, plan_s: float, rows: float = 10.0) -> dict:
    values = {entry["name"]: 1.0 for entry in BENCHMARK["end_to_end"]}
    values["plan_s_min"] = plan_s
    return {
        "workload": workload,
        "seed": seed,
        "comparable": True,
        "end_to_end": {
            name: {"value": value, "unit": "x"} for name, value in values.items()
        },
        "per_layer": {"kernels.rows": {"value": rows, "unit": "count"}},
    }


def test_compare_gives_a_verdict_per_workload_and_metric():
    bound = next(
        entry["bound"]
        for entry in BENCHMARK["end_to_end"]
        if entry["name"] == "plan_s_min"
    )
    set_a = {"w1": [_document("w1", s, 1.0 + s / 100) for s in range(5)]}
    near = {"w1": [_document("w1", s, 1.01 + s / 100) for s in range(5)]}
    far = {
        "w1": [_document("w1", s, (1.0 + s / 100) * (1.1 + bound)) for s in range(5)]
    }
    lines, agrees = compare.compare(set_a, near, BENCHMARK["end_to_end"])
    assert agrees
    assert len(lines) == 1 + len(BENCHMARK["end_to_end"])
    assert all(line.endswith("agrees") for line in lines[1:])
    lines, agrees = compare.compare(set_a, far, BENCHMARK["end_to_end"])
    assert not agrees
    verdicts = {line.split()[1]: line for line in lines[1:]}
    assert verdicts["plan_s_min"].endswith("exceeds bound")
    assert verdicts["setup_s"].endswith("agrees")


def test_compare_counts_a_drift_to_the_better_as_disagreement():
    """Both sets are the same code: a faster second set is noise too."""
    set_a = {"w1": [_document("w1", s, 1.0 + s / 100) for s in range(5)]}
    faster = {"w1": [_document("w1", s, (1.0 + s / 100) * 0.7) for s in range(5)]}
    lines, agrees = compare.compare(set_a, faster, BENCHMARK["end_to_end"])
    assert not agrees
    row = next(line for line in lines[1:] if line.split()[1] == "plan_s_min")
    assert "-30.00%" in row and row.endswith("exceeds bound")


def test_compare_holds_medians_to_the_tighter_of_agreement_and_bound():
    for entry in BENCHMARK["end_to_end"]:
        assert compare.AGREE_WITHIN[entry["name"]] <= entry["bound"]
    set_a = {"w1": [_document("w1", s, 1.0) for s in range(5)]}
    drifted = {"w1": [_document("w1", s, 1.08) for s in range(5)]}
    _, agrees = compare.compare(set_a, drifted, BENCHMARK["end_to_end"])
    assert not agrees  # 8 % is inside the 25 % regression bound, outside 5 %


def test_compare_lists_counts_that_differ_for_one_seed():
    set_a = {"w1": [_document("w1", 1, 1.0, rows=10)]}
    same = {"w1": [_document("w1", 1, 1.1, rows=10)]}
    moved = {"w1": [_document("w1", 1, 1.1, rows=11)]}
    assert compare.count_differences(set_a, same) == []
    assert "kernels.rows" in compare.count_differences(set_a, moved)[0]


def test_compare_statistics_match_the_acceptance_rule():
    values = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert compare.spread(values) == (q3 - q1) / statistics.median(values)
    assert compare.disagreement(2.0, 2.2, "lower") == pytest.approx(0.1)
    assert compare.disagreement(2.0, 2.2, "higher") == pytest.approx(-0.1)
