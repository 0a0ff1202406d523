"""The benchmark of record for ``ROpus.plan``.

One workload, as the regression driver calls it::

    python3 benchmarks/record/run.py --workload pool_mono --seed 7 \\
        --seconds 27 --trace 0

prints one JSON object as its last line: ``--trace 0`` the end-to-end
metrics, ``--trace 1`` the per-layer metrics of the traced run. Every
workload, every metric by name with its unit::

    python3 benchmarks/record/run.py --workload all --trace 1

Each workload runs in a process of its own (peak RSS and cold state
are per process). The exit code is 1 when any plan fails validation or
drifts from the first plan of its run. See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

# Before numpy loads: one BLAS/OpenMP thread, so a plan is one thread.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: Known before the (timed) imports: the contract file names the workloads.
WORKLOAD_NAMES = tuple(
    entry["name"]
    for entry in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]
)


def _import_harness():
    """Import the harness against this checkout's ``src/`` and no other."""
    package = REPO_ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"run.py: {package} is missing; run from a full checkout")
    sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE)]
    import harness
    import repro

    if Path(repro.__file__).resolve() != package:
        sys.exit(f"run.py: imported repro from {repro.__file__}, not {package}")
    return harness


def _print_table(result: dict) -> None:
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"ensemble_seed={result['ensemble_seed']}"
        + ("" if result["comparable"] else "  [--quick: NOT comparable]")
    )
    for section in ("end_to_end", "per_layer"):
        for name, entry in result.get(section, {}).items():
            print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")


def _run_one(args: argparse.Namespace) -> int:
    harness = _import_harness()
    out = Path(args.out)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        ensemble_seed=args.ensemble_seed,
        started=_STARTED,
        spans_path=out / f"{stem}.spans.jsonl" if args.trace else None,
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    measured = "end_to_end" in result
    correct = (
        measured and result["failed"] == 0 and not result["probe_problems"]
    )
    if args.verbose and measured:
        _print_table(result)
    metrics = result.get("per_layer" if args.trace else "end_to_end", {})
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; tables first, one summary line last."""
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--ensemble-seed", str(args.ensemble_seed),
            "--out", args.out,
            "--verbose",
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary[name] = json.loads(lines[-1])["correct"] and done.returncode == 0
        except (ValueError, KeyError, TypeError):
            summary[name] = False
    print(json.dumps({"correct": all(summary.values()), "workloads": summary}))
    return 0 if all(summary.values()) else 1


def _children() -> list[int]:
    """Pids of this process's children, zombies included, from ``/proc``."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and brackets
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry))
    return found


def _stop_children() -> list[int]:
    """Kill whatever this process started and still has; wait for each.

    The harness stops what it starts (worker pools are joined, the
    resource tracker is stopped where it is made), so this finds nothing:
    it is the guard on every path out, an exception's too. Returns the
    pids it had to kill.
    """
    killed = []
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue
        killed.append(pid)
    return killed


def main() -> int:
    try:
        return _main()
    finally:
        killed = _stop_children()
        if killed:
            print(f"run.py: killed leftover processes {killed}", file=sys.stderr)


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument(
        "--seed", type=int, default=2006,
        help="orders the calendar's weeks (or days); the plan's work is unchanged",
    )
    parser.add_argument(
        "--seconds", type=float, default=27.0,
        help="timed repeats go on while they fit in this budget (never fewer than 5)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ensemble-seed", type=int, default=2006,
        help="the ensemble family, GA seed and cluster seed: another planning problem",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny ensembles, one timed repeat; same metric names, NOT comparable",
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"),
        help="directory for the result JSON and the span JSONL",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every metric as a table before the JSON line",
    )
    args = parser.parse_args()
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
