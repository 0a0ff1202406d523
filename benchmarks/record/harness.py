"""One workload's run: set-up, a cold plan, timed repeats, checks, metrics.

The protocol, in one process and one thread::

    imports -> build inputs -> one cold ROpus.plan
        (setup_s: run.py's first line to here, one span)
    -> repeat: gc.collect(); fresh ROpus on a fresh serial engine; time plan()
    -> read peak RSS
    -> (--trace 1) hand-composed traced pipeline and layer probes

Timings are the *minimum* over the timed repeats: the work is
deterministic, so every excess over the fastest repeat is the machine,
not the program. Every plan is validated outside its timed region and
compared against the first plan of the run (the determinism guard).
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

import validator
import workloads
from repro.core.framework import CapacityPlan

#: Fewest timed repeats a comparable run may report a minimum over.
MIN_REPEATS = 5

REPO_ROOT = Path(__file__).resolve().parents[2]


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` by hand; the driver's checkout has none."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict[str, object]:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_sha": _git_sha(),
        "thread_pins": {
            name: os.environ.get(name)
            for name in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
    }


def failover_counts(plan: CapacityPlan) -> tuple[int, int]:
    """``(feasible cases, cases swept)`` over every scope of the plan."""
    cases = [
        case
        for report in validator.failure_reports(plan).values()
        for case in report.cases
    ]
    return sum(case.feasible for case in cases), len(cases)


def plan_counts(plan: CapacityPlan) -> dict[str, float]:
    """Every count a plan reports; all of them must repeat exactly."""
    counts = {f"counter:{name}": value for name, value in plan.counters.items()}
    feasible, cases = failover_counts(plan)
    counts["failure:cases"] = cases
    counts["failure:feasible"] = feasible
    if plan.sharding is not None:
        counts["sharding:shards"] = plan.sharding["shards"]
        counts["sharding:largest_shard"] = max(plan.sharding["shard_sizes"])
        counts["sharding:migrations"] = plan.sharding["migrations"]
        counts["sharding:refine_rounds"] = plan.sharding["refine_rounds_run"]
    return counts


@dataclass(frozen=True)
class PlanDigest:
    """What must be identical across the cold, timed and traced plans."""

    plan_hash: str
    sum_required: float
    servers_used: int
    counts: Mapping[str, float]

    @classmethod
    def of(cls, plan: CapacityPlan) -> "PlanDigest":
        return cls(
            plan_hash=plan.plan_hash(),
            sum_required=plan.consolidation.sum_required,
            servers_used=plan.servers_used,
            counts=plan_counts(plan),
        )

    def differences(self, first: "PlanDigest") -> list[str]:
        """Each field that differs from the run's first plan, both values."""
        problems = []
        for name in ("plan_hash", "sum_required", "servers_used"):
            ours, theirs = getattr(self, name), getattr(first, name)
            if ours != theirs:
                problems.append(f"{name}: {ours!r} != first plan's {theirs!r}")
        for name in sorted(set(self.counts) | set(first.counts)):
            ours, theirs = self.counts.get(name), first.counts.get(name)
            if ours != theirs:
                problems.append(f"{name}: {ours!r} != first plan's {theirs!r}")
        return problems


class PlanLedger:
    """Counts plans attempted and failed; owns the determinism guard."""

    def __init__(self, check: Callable[[CapacityPlan], list[str]], label: str):
        self._check = check
        self._label = label
        self.attempted = 0
        self.failed = 0
        self.first: Optional[PlanDigest] = None

    def attempt(
        self, phase: str, make_plan: Callable[[], CapacityPlan]
    ) -> Optional[CapacityPlan]:
        """Run one plan; a raise, a validator finding or a drift fails it."""
        self.attempted += 1
        try:
            plan = make_plan()
        except Exception:  # the run goes on and reports the plan as failed
            self._fail(phase, [traceback.format_exc()])
            return None
        problems = self._check(plan)
        digest = PlanDigest.of(plan)
        if self.first is None:
            self.first = digest
        else:
            problems += digest.differences(self.first)
        if problems:
            self._fail(phase, problems)
        return plan

    def _fail(self, phase: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"[{self._label}] {phase} plan FAILED: {problem}", file=sys.stderr)

    @property
    def valid_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted


@dataclass(frozen=True)
class TimedRepeat:
    wall: float
    cpu: float
    ended: float  # time.perf_counter() when the plan returned
    stage_timings: Mapping[str, float]


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": float(value), "unit": unit}


def _timed(make_plan: Callable[[], CapacityPlan], into: list[TimedRepeat]):
    """Wrap ``make_plan`` so only the plan call itself is on the clock."""

    def run() -> CapacityPlan:
        cpu_start = cpu_seconds()
        wall_start = time.perf_counter()
        plan = make_plan()
        ended = time.perf_counter()
        into.append(
            TimedRepeat(
                ended - wall_start, cpu_seconds() - cpu_start, ended, plan.timings
            )
        )
        return plan

    return run


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    ensemble_seed: int = workloads.DEFAULT_SEED,
    started: Optional[float] = None,
    spans_path: Optional[Path] = None,
) -> dict[str, object]:
    """Run one workload's protocol and return its result document."""
    imported = time.perf_counter()
    started = imported if started is None else started
    spec = workloads.workload(name, quick)
    policy = workloads.policy()
    demands = workloads.build_demands(spec, seed, ensemble_seed)
    generate_s = time.perf_counter() - imported
    framework = workloads.build_framework(spec, ensemble_seed)
    pool = framework.pool

    def check(plan: CapacityPlan) -> list[str]:
        return validator.validate_plan(plan, demands, policy, pool, sample_seed=seed)

    def plan_with(fresh) -> Callable[[], CapacityPlan]:
        return lambda: fresh.plan(
            demands, policy, plan_failures=spec.plan_failures
        )

    ledger = PlanLedger(check, name)
    cold: list[TimedRepeat] = []
    ledger.attempt("cold", _timed(plan_with(framework), cold))
    del framework
    rss_after_setup = peak_rss_mb()

    repeats: list[TimedRepeat] = []
    min_repeats, budget = (1, 0.0) if quick else (MIN_REPEATS, seconds)
    while len(repeats) < min_repeats or (
        sum(r.wall for r in repeats) + statistics.median(r.wall for r in repeats)
        <= budget
    ):
        fresh = workloads.build_framework(spec, ensemble_seed)
        gc.collect()
        done = len(repeats)
        ledger.attempt(f"timed[{done}]", _timed(plan_with(fresh), repeats))
        del fresh
        if len(repeats) == done:  # the plan raised; attempt() reported it
            break
    peak_rss = peak_rss_mb()

    result: dict[str, object] = {
        "workload": name,
        "seed": seed,
        "ensemble_seed": ensemble_seed,
        "comparable": not quick,
        "environment": environment(),
        "shape": {
            "n_apps": spec.n_apps,
            "slots": spec.slots,
            "servers": spec.servers,
            "sharding": spec.sharding,
            "plan_failures": spec.plan_failures,
        },
    }
    if cold and len(repeats) >= min_repeats:
        fastest = min(repeats, key=lambda repeat: repeat.wall)
        first = ledger.first
        layers: dict[str, dict[str, object]] = {}
        problems: list[str] = []
        if trace:
            import tracing

            layers, problems = tracing.layer_metrics(
                spec,
                demands,
                policy,
                ledger=ledger,
                ensemble_seed=ensemble_seed,
                plan_s_min=fastest.wall,
                fastest_timings=dict(fastest.stage_timings),
                walls=[repeat.wall for repeat in repeats],
                generate_s=generate_s,
                rss_after_setup=rss_after_setup,
                spans_path=spans_path,
            )
            for problem in problems:
                print(f"[{name}] probe FAILED: {problem}", file=sys.stderr)
        cases = first.counts["failure:cases"]
        coverage = first.counts["failure:feasible"] / cases if cases else 1.0
        result["end_to_end"] = {
            "plan_s_min": metric(fastest.wall, "s"),
            "plan_cpu_s_min": metric(fastest.cpu, "s"),
            "setup_s": metric(cold[0].ended - started, "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "sum_required_cpus": metric(first.sum_required, "CPUs"),
            "servers_used": metric(first.servers_used, "count"),
            "failover_coverage": metric(coverage, "ratio"),
            "valid_plan_share": metric(ledger.valid_share, "ratio"),
        }
        result["per_layer"] = layers
        result["probe_problems"] = problems
        result["setup_parts_s"] = {
            "imports": imported - started,
            "generate": generate_s,
            "cold_plan": cold[0].wall,
        }
        result["repeats"] = {
            "count": len(repeats),
            "wall_s": [repeat.wall for repeat in repeats],
            "cpu_s": [repeat.cpu for repeat in repeats],
        }
        result["plan_hash"] = first.plan_hash
    result.update(attempted=ledger.attempted, failed=ledger.failed)
    return result
