"""Paired A/B of the benchmark of record: a parent revision against this tree.

    python tools/ab.py <git-rev> --workload pool_mono --pairs 10 \\
        [--ensemble-seed 2007]

Checks ``<git-rev>`` out into a scratch directory (``git archive``, so
nothing is left in ``.git`` even if the run is killed), then alternates
parent and change runs of ``benchmarks/record/run.py --seconds 27
--trace 0`` on seeds 1..N — odd seeds parent first, even seeds change
first, so a machine that drifts during the campaign drifts on both
sides. The change is the working tree this file sits in, uncommitted
edits included. Each run prints its ``plan_s_min``, ``setup_s`` and
``peak_rss_mb`` as it finishes. Both sets of result documents go to
``benchmarks/record/compare.py`` (medians, spreads and bounds as the
regression driver sees them); then, per end-to-end metric, this prints
every pair, each side's median and quartiles and the pairs won, and
applies the rule a ``[perf_opt]`` claim must meet: the change better in
at least nine tenths of the pairs (ties count for neither side) and the
medians further apart than the parent's own interquartile range. Then
comes ``plan_hash equal in k/N pairs``, naming the seeds whose two plans
differ, so a "same plans" claim is checked on every pair. Last come
each side's median ``setup_parts_s`` (imports, input generation, cold
plan), so a ``setup_s`` change says which part of setup moved.

Exit code 1 when a run reported an invalid or failed plan.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "benchmarks" / "record"
sys.path.insert(0, str(RECORD))

from compare import quartiles  # noqa: E402  (the verdict tool's quartiles)

SIDES = ("parent", "change")
#: The parts of ``setup_s`` that ``run.py`` times, in the order they run.
SETUP_PARTS = ("imports", "generate", "cold_plan")


def run_order(pairs: int) -> list[tuple[int, str]]:
    """``(seed, side)`` in run order: odd seeds parent first, even change."""
    order = []
    for seed in range(1, pairs + 1):
        first, second = SIDES if seed % 2 else SIDES[::-1]
        order += [(seed, first), (seed, second)]
    return order


def summarize(
    parent: Sequence[float], change: Sequence[float], better: str
) -> dict[str, object]:
    """Medians, quartiles, pairs won and the claim rule for one metric.

    ``parent[i]`` and ``change[i]`` are one pair. A tie is a win for
    neither side, and counts against the nine-tenths rule.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(list(parent))
    c_q1, c_median, c_q3 = quartiles(list(change))
    gain = sign * (p_median - c_median)
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "relative": (c_median - p_median) / abs(p_median) if p_median else 0.0,
        "parent_iqr": p_q3 - p_q1,
        "gain": 10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1,
    }


def report(
    documents: dict[str, dict[int, dict]],
    order: Sequence[tuple[int, str]],
    end_to_end: Sequence[dict],
) -> list[str]:
    """The per-pair table and summary line of every end-to-end metric."""
    first_side = dict(order[::2])
    seeds = sorted(first_side)
    lines = []
    for spec in end_to_end:
        name = spec["name"]
        parent, change = (
            [documents[side][seed]["end_to_end"][name]["value"] for seed in seeds]
            for side in SIDES
        )
        lines.append(f"{name} [{spec['unit']}, {spec['better']} is better]")
        for seed, p, c in zip(seeds, parent, change):
            lines.append(
                f"  seed {seed:<3d} ({first_side[seed]} first)  {p:.6g} -> {c:.6g}"
            )
        s = summarize(parent, change, spec["better"])
        p_q1, p_median, p_q3 = s["parent"]
        c_q1, c_median, c_q3 = s["change"]
        lines.append(
            f"  median {p_median:.6g} -> {c_median:.6g} ({s['relative']:+.1%})  "
            f"parent q1/q3 {p_q1:.6g}/{p_q3:.6g} (IQR {s['parent_iqr']:.3g})  "
            f"change q1/q3 {c_q1:.6g}/{c_q3:.6g}  "
            f"wins {s['wins']}/{s['pairs']}, ties {s['ties']}  => "
            + ("gain" if s["gain"] else "no gain to claim")
        )
    return lines


def plan_hashes(documents: dict[str, dict[int, dict]]) -> list[str]:
    """How many pairs planned the same ``plan_hash``; the seeds that did not."""
    seeds = sorted(documents["parent"])
    differ = []
    for seed in seeds:
        parent, change = (documents[side][seed].get("plan_hash") for side in SIDES)
        if parent is None or parent != change:
            differ.append(seed)
    line = f"plan_hash equal in {len(seeds) - len(differ)}/{len(seeds)} pairs"
    if differ:
        line += "; differs on seed " + ", ".join(map(str, differ))
    return [line]


def setup_parts(documents: dict[str, dict[int, dict]]) -> list[str]:
    """Each side's median ``setup_parts_s``: which part of ``setup_s`` moved."""
    lines = ["setup_parts_s [s, median of each side]"]
    for part in SETUP_PARTS:
        parent, change = (
            statistics.median(
                document["setup_parts_s"][part]
                for document in documents[side].values()
            )
            for side in SIDES
        )
        lines.append(
            f"  {part:<9s}  {parent:.4g} -> {change:.4g} ({change - parent:+.3g})"
        )
    return lines


def progress(seed: int, side: str, document: dict) -> str:
    """One run's line as the campaign goes: its time, setup and memory."""
    metrics = document["end_to_end"]
    return (
        f"seed {seed} {side}: plan_s_min "
        f"{metrics['plan_s_min']['value']:.4f} s, setup_s "
        f"{metrics['setup_s']['value']:.4f} s, peak_rss_mb "
        f"{metrics['peak_rss_mb']['value']:.2f} MB"
        + ("" if document["correct"] else "  [FAILED PLANS]")
    )


def checkout(revision: str, into: Path) -> None:
    """Unpack ``revision``'s committed files into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        check=True,
        stdout=subprocess.PIPE,
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def run_once(root: Path, out: Path, args: argparse.Namespace, seed: int) -> dict:
    """One ``run.py`` run of ``root``'s checkout; its result document."""
    done = subprocess.run(
        [
            sys.executable,
            str(root / "benchmarks" / "record" / "run.py"),
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
            "--ensemble-seed", str(args.ensemble_seed),
            "--out", str(out),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    path = out / f"{args.workload}-seed{seed}-trace0.json"
    document = json.loads(path.read_text())
    if "end_to_end" not in document:
        raise SystemExit(f"{path}: the run reported no metrics")
    document["path"] = str(path)
    document["correct"] = done.returncode == 0
    return document


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", help="the parent: any git revision")
    parser.add_argument(
        "--workload", required=True,
        choices=[entry["name"] for entry in benchmark["workloads"]],
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--ensemble-seed", type=int, default=2006)
    parser.add_argument(
        "--out", help="keep the result documents here (default: a temp directory)"
    )
    args = parser.parse_args()

    out = Path(args.out or tempfile.mkdtemp(prefix="ropus-ab-out-")).resolve()
    scratch = Path(tempfile.mkdtemp(prefix="ropus-ab-parent-"))
    roots = {"parent": scratch, "change": ROOT}
    order = run_order(args.pairs)
    documents: dict[str, dict[int, dict]] = {side: {} for side in SIDES}
    try:
        checkout(args.revision, scratch)
        for seed, side in order:
            document = run_once(roots[side], out / side, args, seed)
            documents[side][seed] = document
            print(progress(seed, side, document), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    compared = subprocess.run(
        [sys.executable, str(RECORD / "compare.py")]
        + ["--a", *(doc["path"] for doc in documents["parent"].values())]
        + ["--b", *(doc["path"] for doc in documents["change"].values())],
        stdout=subprocess.PIPE,
        text=True,
    )
    print(f"\n== compare.py (A = {args.revision}, B = working tree) ==")
    print(compared.stdout.rstrip())
    print(
        f"\n== {args.workload}, ensemble seed {args.ensemble_seed}: "
        f"{args.revision} -> working tree, {args.pairs} pairs =="
    )
    print("\n".join(report(documents, order, benchmark["end_to_end"])))
    print("\n".join(plan_hashes(documents)))
    print("\n".join(setup_parts(documents)))
    print(f"\nresult documents: {out}")
    correct = all(
        document["correct"] for side in SIDES for document in documents[side].values()
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
