"""Do two sets of benchmark runs agree within the benchmark's own bounds?

    python3 benchmarks/record/compare.py --a outA/*.json --b outB/*.json

Each file is a result document ``run.py`` wrote. Per workload and
end-to-end metric, one row: each set's median and quartiles, the second
set's disagreement with the first as a share of the first's median
(positive = worse), each set's own spread (IQR / median), the share the
two medians must agree ``within``, the metric's regression ``bound`` from
BENCHMARK.json and a verdict. Two sets of the same code disagree by
noise alone, so a drift in either direction counts. A second table lists
every count-type layer metric whose values are not all equal; counts
must repeat exactly between runs of one seed.

Exit code 1 when any row exceeds its bound or any count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: How closely the medians of two sets of runs of the same code must agree.
#: BENCHMARK.json's bound is used where it is tighter; it is wider on the
#: timings because the driver also holds every single run's spread to it.
AGREE_WITHIN = {
    "plan_s_min": 0.05,
    "plan_cpu_s_min": 0.05,
    "setup_s": 0.10,
    "peak_rss_mb": 0.05,
    "sum_required_cpus": 0.001,
    "servers_used": 0.0,
    "failover_coverage": 0.0,
    "valid_plan_share": 0.0,
}


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile; a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def disagreement(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def load(paths: Iterable[str]) -> dict[str, list[dict]]:
    """Result documents grouped by workload; non-comparable ones refused."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        document = json.loads(Path(path).read_text())
        if not document.get("comparable", False):
            raise SystemExit(f"{path}: a --quick result is not comparable")
        if "end_to_end" not in document:
            raise SystemExit(f"{path}: the run reported no metrics")
        by_workload[document["workload"]].append(document)
    return by_workload


def values_of(documents: Sequence[dict], section: str, name: str) -> list[float]:
    return [
        document[section][name]["value"]
        for document in documents
        if name in document.get(section, {})
    ]


def compare(
    set_a: dict[str, list[dict]],
    set_b: dict[str, list[dict]],
    end_to_end: Sequence[dict],
) -> tuple[list[str], bool]:
    """The report's lines and whether every row agrees."""
    lines = [
        f"{'workload':15s} {'metric':18s} {'n':>5s} "
        f"{'A q1/med/q3':>32s} {'B q1/med/q3':>32s} "
        f"{'B vs A':>8s} {'spreadA':>8s} {'spreadB':>8s} "
        f"{'within':>6s} {'bound':>6s}  verdict"
    ]
    agrees = True
    for workload in sorted(set(set_a) | set(set_b)):
        if workload not in set_a or workload not in set_b:
            lines.append(f"{workload:15s} present in only one set")
            agrees = False
            continue
        for spec in end_to_end:
            a = values_of(set_a[workload], "end_to_end", spec["name"])
            b = values_of(set_b[workload], "end_to_end", spec["name"])
            qa, qb = quartiles(a), quartiles(b)
            worse = disagreement(qa[1], qb[1], spec["better"])
            within = min(spec["bound"], AGREE_WITHIN.get(spec["name"], spec["bound"]))
            ok = abs(worse) <= within
            agrees &= ok
            lines.append(
                f"{workload:15s} {spec['name']:18s} {len(a):2d}/{len(b):<2d} "
                f"{_triple(qa):>32s} {_triple(qb):>32s} "
                f"{worse:+8.2%} {spread(a):8.2%} {spread(b):8.2%} "
                f"{within:6.2%} {spec['bound']:6.2%}  "
                f"{'agrees' if ok else 'exceeds bound'}"
            )
    return lines, agrees


def _triple(values: tuple[float, float, float]) -> str:
    return "/".join(f"{value:.6g}" for value in values)


def count_differences(
    set_a: dict[str, list[dict]], set_b: dict[str, list[dict]]
) -> list[str]:
    """Count-type layer metrics that differ between runs of one seed."""
    lines = []
    for workload in sorted(set(set_a) & set(set_b)):
        by_seed: dict[int, list[dict]] = defaultdict(list)
        for document in set_a[workload] + set_b[workload]:
            by_seed[document["seed"]].append(document)
        for seed, documents in sorted(by_seed.items()):
            # framework.repeats is a count of the time budget, not of the work.
            names = {
                name
                for document in documents
                for name, entry in document.get("per_layer", {}).items()
                if entry["unit"] == "count" and name != "framework.repeats"
            }
            for name in sorted(names):
                seen = set(values_of(documents, "per_layer", name))
                if len(seen) > 1:
                    lines.append(
                        f"{workload:15s} seed {seed}: {name} takes {sorted(seen)}"
                    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="first set's result files")
    parser.add_argument("--b", nargs="+", required=True, help="second set's result files")
    args = parser.parse_args()
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    set_a, set_b = load(args.a), load(args.b)
    lines, agrees = compare(set_a, set_b, end_to_end)
    print("\n".join(lines))
    differing = count_differences(set_a, set_b)
    print(
        "\ncount-type layer metrics: "
        + ("all equal between runs of one seed" if not differing else "DIFFER")
    )
    print("\n".join(differing))
    return 0 if agrees and not differing else 1


if __name__ == "__main__":
    sys.exit(main())
