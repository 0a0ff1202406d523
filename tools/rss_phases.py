"""Where a benchmark-shaped run sets its memory high-water mark.

    python tools/rss_phases.py --workload year_long [--seed 7] \\
        [--ensemble-seed 2006] [--quick]

Runs one workload the way ``benchmarks/record/run.py`` does, in this
process: the same thread pins and imports, the same inputs, a cold plan
and its validation, then one timed-style repeat (a fresh framework after
``gc.collect()``) and its validation. It prints ``ru_maxrss`` (the peak
so far, what ``peak_rss_mb`` reports) and ``VmRSS`` (resident now) at
each mark: after the imports, after the inputs, after the correlation
seed, after each pipeline stage (translation among them) and after the
validator. The marks come from wrapping ``src`` calls in this process;
nothing under ``benchmarks/record`` is edited. A ``+`` column gives how
far the peak rose since the previous mark, so the row where it rises
names the call that raised the high-water mark.

Linux only: ``VmRSS`` is read from ``/proc/self/status``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal  # noqa: F401  (run.py's own imports)
import subprocess  # noqa: F401
import sys
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "benchmarks" / "record"


def peak_mb() -> float:
    """``ru_maxrss`` in MB, as the benchmark's ``peak_rss_mb`` reads it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """``VmRSS`` in MB: what the process holds right now."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return float("nan")


class Marks:
    """Prints one row per mark: peak, its rise since the last mark, RSS."""

    def __init__(self, phase: str = "setup"):
        self.phase = phase
        self.rows: list[tuple[str, float, float, float]] = []
        self._last = 0.0
        print(f"{'mark':48s} {'ru_maxrss':>10s} {'+':>6s} {'VmRSS':>8s}  MB")

    def __call__(self, label: str) -> None:
        peak, resident = peak_mb(), resident_mb()
        row = (f"{self.phase}: {label}", peak, peak - self._last, resident)
        self._last = peak
        self.rows.append(row)
        print(f"{row[0]:48s} {peak:10.1f} {row[2]:+6.1f} {resident:8.1f}", flush=True)


def _after(owner: object, name: str, label: Callable[..., str], mark: Marks) -> None:
    """Wrap ``owner.name`` so every call is followed by a mark."""
    original = getattr(owner, name)

    @wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        mark(label(*args, **kwargs))
        return result

    setattr(owner, name, wrapper)


def instrument(mark: Marks) -> None:
    """Mark after each pipeline stage (translation is one) and each
    correlation seed."""
    from repro.engine.instrumentation import Instrumentation
    from repro.placement import correlation

    _after(
        correlation,
        "allocation_correlation_matrix",
        lambda evaluator: f"correlation seed ({evaluator.n_workloads} workloads)",
        mark,
    )
    stage = Instrumentation.stage

    @contextmanager
    def marked_stage(self, name: str) -> Iterator[None]:
        with stage(self, name):
            yield
        mark(f"stage {name}")

    Instrumentation.stage = marked_stage


def run(
    workload: str,
    seed: int,
    ensemble_seed: int = 2006,
    quick: bool = False,
) -> Marks:
    """One benchmark-shaped run of ``workload``, marked as it goes."""
    mark = Marks()
    sys.path[:0] = [str(ROOT / "src"), str(RECORD)]
    import harness  # noqa: F401  (the benchmark's imports)
    import validator
    import workloads

    mark("imports")
    spec = workloads.workload(workload, quick)
    policy = workloads.policy()
    demands = workloads.build_demands(spec, seed, ensemble_seed)
    mark("inputs")
    instrument(mark)
    for phase in ("cold", "repeat"):
        mark.phase = phase
        framework = workloads.build_framework(spec, ensemble_seed)
        gc.collect()
        started = time.perf_counter()
        plan = framework.plan(demands, policy, plan_failures=spec.plan_failures)
        mark(f"plan ({time.perf_counter() - started:.2f} s)")
        problems = validator.validate_plan(
            plan, demands, policy, framework.pool, sample_seed=seed
        )
        mark("validator" + (f" ({len(problems)} problems)" if problems else ""))
        del framework, plan
    return mark


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[entry["name"] for entry in benchmark["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ensemble-seed", type=int, default=2006)
    parser.add_argument(
        "--quick", action="store_true", help="the benchmark's tiny ensembles"
    )
    args = parser.parse_args()
    # Before numpy loads: one BLAS/OpenMP thread, as the benchmark pins it.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    marks = run(args.workload, args.seed, args.ensemble_seed, args.quick)
    peak = max(row[1] for row in marks.rows)
    label = next(row[0] for row in marks.rows if row[1] == peak)
    print(f"peak {peak:.1f} MB, first reached by {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
