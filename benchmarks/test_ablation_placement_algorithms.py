"""Ablation: genetic search vs greedy vs scalar bin packing (Section VIII).

The paper argues (a) ILP-style peak-based bin packing is impractical and
ignores statistical multiplexing, and (b) the genetic search compares
favourably to greedy placement. This benchmark runs all of them on the
case-study workloads:

* genetic / first-fit / best-fit all use the trace-accurate simulator;
* the bin-packing baselines place scalar *peak allocations* (no time
  structure), reproducing the authors' earlier consolidation method:
  first-fit decreasing, and an exact branch and bound standing in for
  the ILP the paper found impractical. They live here, with their own
  tests, because nothing else in the repository packs scalars.
"""

import math

import pytest

from repro.core.cos import CoSCommitment, PoolCommitments
from repro.core.qos import case_study_qos
from repro.core.translation import QoSTranslator
from repro.placement.consolidation import Consolidator
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.util.rng import derive_rng

from conftest import M_DEGR_PERCENT, print_series

THETA = 0.6
SERVER_CPUS = 16
SEARCH = GeneticSearchConfig(
    seed=1, population_size=24, max_generations=120, stall_generations=20
)

#: A packing: each bin's item indices, sorted.
Bins = tuple[tuple[int, ...], ...]


def lower_bound(sizes, capacity):
    """The volume lower bound ``ceil(sum(sizes) / capacity)``."""
    total = float(sum(sizes))
    if total <= 0:
        return 0
    return max(1, math.ceil(total / capacity - 1e-9))


def pack_first_fit_decreasing(sizes, capacity) -> Bins:
    """First-fit decreasing packing of scalar items (each <= capacity)."""
    bins: list[list[int]] = []
    slack: list[float] = []
    for item in sorted(range(len(sizes)), key=lambda index: -sizes[index]):
        target = next(
            (b for b, room in enumerate(slack) if sizes[item] <= room + 1e-9),
            None,
        )
        if target is None:
            bins.append([item])
            slack.append(capacity - sizes[item])
        else:
            bins[target].append(item)
            slack[target] -= sizes[item]
    return tuple(tuple(sorted(group)) for group in bins)


def pack_branch_and_bound(sizes, capacity, max_nodes=200_000) -> Bins:
    """Exact bin packing by depth-first branch and bound.

    Items go largest first into every open bin with room (bins of equal
    slack tried once) and then into a new bin, pruned by the volume bound
    against the incumbent, which starts as first-fit decreasing. After
    ``max_nodes`` nodes the incumbent is returned unproven — the
    impracticality the paper reports for exact packing at scale.
    """
    best = [list(group) for group in pack_first_fit_decreasing(sizes, capacity)]
    if len(best) == lower_bound(sizes, capacity):
        return tuple(tuple(group) for group in best)
    order = sorted(range(len(sizes)), key=lambda index: -sizes[index])
    suffix = [0.0] * (len(order) + 1)
    for position in range(len(order) - 1, -1, -1):
        suffix[position] = suffix[position + 1] + sizes[order[position]]
    bins: list[list[int]] = []
    slack: list[float] = []
    nodes = max_nodes

    def recurse(position):
        nonlocal best, nodes
        if nodes <= 0:
            return
        nodes -= 1
        if len(bins) >= len(best):
            return
        if position == len(order):
            best = [list(group) for group in bins]
            return
        extra = math.ceil(max(0.0, suffix[position] - sum(slack)) / capacity - 1e-9)
        if len(bins) + extra >= len(best):
            return
        item = order[position]
        tried = set()
        for index, room in enumerate(slack):
            if sizes[item] > room + 1e-9 or round(room, 9) in tried:
                continue
            tried.add(round(room, 9))
            bins[index].append(item)
            slack[index] -= sizes[item]
            recurse(position + 1)
            slack[index] += sizes[item]
            bins[index].pop()
        if len(bins) + 1 < len(best):
            bins.append([item])
            slack.append(capacity - sizes[item])
            recurse(position + 1)
            bins.pop()
            slack.pop()

    recurse(0)
    return tuple(tuple(sorted(group)) for group in best)


@pytest.fixture(scope="module")
def pairs(ensemble):
    translator = QoSTranslator(PoolCommitments.of(theta=THETA))
    qos = case_study_qos(m_degr_percent=M_DEGR_PERCENT)
    return [translator.translate(trace, qos).pair for trace in ensemble]


@pytest.fixture(scope="module")
def consolidator():
    return Consolidator(
        ResourcePool(homogeneous_servers(16, cpus=SERVER_CPUS)),
        CoSCommitment(theta=THETA, deadline_minutes=60),
        config=SEARCH,
    )


@pytest.fixture(scope="module")
def results(pairs, consolidator):
    trace_driven = {
        algorithm: consolidator.consolidate(pairs, algorithm=algorithm)
        for algorithm in ("genetic", "first_fit", "best_fit")
    }
    peaks = [pair.peak_allocation() for pair in pairs]
    assert max(peaks) <= SERVER_CPUS
    packing = {
        "binpack_ffd": pack_first_fit_decreasing(peaks, SERVER_CPUS),
        "binpack_bb": pack_branch_and_bound(peaks, SERVER_CPUS, max_nodes=50_000),
    }
    return trace_driven, packing, peaks


def test_ablation_algorithm_quality(results, benchmark, pairs, consolidator):
    benchmark.pedantic(
        lambda: consolidator.consolidate(pairs, algorithm="genetic"),
        rounds=1,
        iterations=1,
    )
    trace_driven, packing, peaks = results

    rows = ["algorithm      servers  C_requ  kind"]
    for name, result in trace_driven.items():
        rows.append(
            f"{name:13}  {result.servers_used:7d}  {result.sum_required:6.1f}"
            "  trace-driven"
        )
    for name, result in packing.items():
        rows.append(f"{name:13}  {len(result):7d}  {'-':>6}  peak-based")
    rows.append(f"volume lower bound (peaks): {lower_bound(peaks, SERVER_CPUS)}")
    print_series("Placement algorithm ablation (theta=0.6, M_degr=3%)", rows)

    genetic = trace_driven["genetic"]
    # The genetic search never uses more servers than the greedy seeds.
    assert genetic.servers_used <= trace_driven["first_fit"].servers_used
    assert genetic.servers_used <= trace_driven["best_fit"].servers_used

    # Peak-based packing ignores multiplexing and needs at least as many
    # servers as the trace-driven placement (the paper's Section VIII
    # criticism of the ILP approach).
    assert len(packing["binpack_ffd"]) >= genetic.servers_used
    assert len(packing["binpack_bb"]) >= genetic.servers_used

    # Exact packing is never worse than its own FFD incumbent.
    assert len(packing["binpack_bb"]) <= len(packing["binpack_ffd"])


def test_ablation_genetic_score_dominates(results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    trace_driven, _, _ = results
    genetic = trace_driven["genetic"]
    for name in ("first_fit", "best_fit"):
        assert genetic.score >= trace_driven[name].score - 1e-9, (
            f"genetic score {genetic.score:.3f} below {name} "
            f"{trace_driven[name].score:.3f}"
        )


# --- the peak-based packers themselves ---


def _assert_packs(bins, sizes, capacity):
    """Every item in exactly one bin, and no bin over capacity."""
    assert sorted(item for group in bins for item in group) == list(range(len(sizes)))
    for group in bins:
        assert sum(sizes[item] for item in group) <= capacity + 1e-9


def test_volume_lower_bound():
    assert lower_bound([4, 4, 4], 10) == 2
    assert lower_bound([5, 5], 10) == 1
    assert lower_bound([], 10) == lower_bound([0, 0], 10) == 0


def test_first_fit_decreasing_packs_every_item_once():
    assert len(pack_first_fit_decreasing([5, 5, 5, 5], 10)) == 2
    assert pack_first_fit_decreasing([], 10) == ()
    for sizes in ([3, 7, 2, 5, 4, 6, 1], [3.3, 7.7, 2.2, 5.5, 4.4]):
        _assert_packs(pack_first_fit_decreasing(sizes, 10), sizes, 10)


def test_branch_and_bound_finds_the_optimum_ffd_misses():
    sizes = [5, 4, 4, 3, 2, 2]  # capacity 10: (5, 3, 2) + (4, 4, 2)
    assert len(pack_first_fit_decreasing(sizes, 10)) == 3
    exact = pack_branch_and_bound(sizes, 10)
    assert len(exact) == 2
    _assert_packs(exact, sizes, 10)
    assert len(pack_branch_and_bound([5] * 6, 10)) == 3
    assert pack_branch_and_bound([], 10) == ()


def test_branch_and_bound_never_worse_than_ffd():
    rng = derive_rng(0)
    for _ in range(10):
        sizes = rng.uniform(1, 9, size=int(rng.integers(1, 13))).tolist()
        exact = pack_branch_and_bound(sizes, 10)
        _assert_packs(exact, sizes, 10)
        assert len(exact) <= len(pack_first_fit_decreasing(sizes, 10))


def test_node_budget_returns_the_incumbent():
    sizes = [3, 5, 7, 2, 6, 4, 8, 1, 9, 2, 5, 3] * 3
    _assert_packs(pack_branch_and_bound(sizes, 10, max_nodes=10), sizes, 10)
