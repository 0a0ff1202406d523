"""The capacity search's working memory stays within a fixed budget.

``tracemalloc`` sees numpy's buffers, so the peak it traces while the
planner asks a batch is the batch's working set: the evaluator's own
matrices are built before tracing starts. Each case states its slack
over :data:`~repro.placement.evaluation._BATCH_BYTES` and what the
slack holds.

The whole-trace passes outside the kernel hold a few rows: the
correlation seed rebuilds its centred series in blocks, and one
translation or one scalar-oracle ``evaluate`` works in place.

A plan holds one copy of its translated traces: an evaluator of a
whole translated set adopts the translator's matrices, and only a
subset or a mix of modes is copied.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.cos import CoSCommitment, PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.placement import consolidation, evaluation, failure, kernels, sharding
from repro.placement.consolidation import Consolidator
from repro.placement.correlation import allocation_correlation_matrix
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.simulator import SingleServerSimulator
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.workloads.ensemble import scaled_ensemble

MIB = 1 << 20


def _pairs(calendar, count, seed):
    rng = np.random.default_rng(seed)
    length = calendar.n_observations
    return [
        CoSAllocationPair(
            f"w{index}",
            AllocationTrace(f"w{index}.cos1", rng.gamma(2.0, 0.2, length), calendar),
            AllocationTrace(f"w{index}.cos2", rng.gamma(1.5, 0.5, length), calendar),
        )
        for index in range(count)
    ]


def _traced_peak(call):
    """Peak bytes traced while ``call`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def year_long():
    """12 workloads on a 52-week, 5-minute calendar (104 832 slots)."""
    calendar = TraceCalendar(weeks=52, slot_minutes=5)
    return PlacementEvaluator(
        _pairs(calendar, 12, seed=52), CoSCommitment(theta=0.95), tolerance=0.01
    )


def test_five_thousand_short_rows_stay_in_budget():
    """~5 000 items of 1–8 members on one week of 30-minute slots. Slack:
    4 MiB for the batch's Python objects (keys, answers, memo) and the
    ``decide`` tiles. Unchunked, the screen gathered and the kernel
    aggregated all 5 000 at once."""
    calendar = TraceCalendar(weeks=1, slot_minutes=30)
    evaluator = PlacementEvaluator(
        _pairs(calendar, 60, seed=1), CoSCommitment(theta=0.95), tolerance=0.01
    )
    rng = np.random.default_rng(1)
    items = [
        (16.0, rng.choice(60, size=int(size), replace=False).tolist())
        for size in rng.integers(1, 9, size=5000)
    ]
    peak, answers = _traced_peak(lambda: evaluator.evaluate_groups(items))
    assert sum(answer.fits for answer in answers) > 4000  # aggregated, mostly
    assert peak <= evaluation._BATCH_BYTES + 4 * MIB


def test_wide_subsets_screen_in_budget():
    """1 000 doomed 24-member subsets on one week of hourly slots, where
    the witness screen's gathers, not the aggregated rows, are the
    working set. Slack as above."""
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    evaluator = PlacementEvaluator(
        _pairs(calendar, 40, seed=24), CoSCommitment(theta=0.95), tolerance=0.01
    )
    rng = np.random.default_rng(24)
    items = [
        (16.0, rng.choice(40, size=24, replace=False).tolist())
        for _ in range(1000)
    ]
    peak, answers = _traced_peak(lambda: evaluator.evaluate_groups(items))
    assert not any(answer.fits for answer in answers)
    assert peak <= evaluation._BATCH_BYTES + 4 * MIB


def test_year_long_rows_stay_in_budget(year_long):
    """12 three-member rows, every one aggregated and bisected. Slack:
    six one-row arrays, the working set of a ``decide`` tile, which is
    one row long at this length. Unchunked, all 12 rows were aggregated
    before the first decision."""
    items = [(16.0, [row, (row + 1) % 12, (row + 5) % 12]) for row in range(12)]
    row_bytes = 8 * year_long.calendar.n_observations
    peak, answers = _traced_peak(lambda: year_long.evaluate_groups(items))
    assert all(answer.fits for answer in answers)
    assert peak <= evaluation._BATCH_BYTES + 6 * row_bytes


def test_correlation_holds_one_matrix_and_one_row(year_long):
    """Two one-row blocks of centred rows (a year-long row is longer than
    a block's budget), one squared row, and 64 KiB for the ``(n, n)``
    result and the per-row scalars: far under the matrix this bound
    used to allow."""
    length = year_long.calendar.n_observations
    peak, _ = _traced_peak(lambda: allocation_correlation_matrix(year_long))
    assert peak <= 8 * 3 * length + 64 * 1024


def test_correlation_peak_does_not_grow_with_workloads():
    """On 26-week rows (one per block) the seed's peak for 16 workloads
    is the peak for 4 within one block and the ``(n, n)`` result: the
    centred series are rebuilt in blocks, never held whole."""
    calendar = TraceCalendar(weeks=26, slot_minutes=5)
    block = 8 * calendar.n_observations
    assert block > kernels._TILE_BYTES
    peaks = {}
    for count in (4, 16):
        evaluator = PlacementEvaluator(
            _pairs(calendar, count, seed=count), CoSCommitment(theta=0.95)
        )
        peaks[count], _ = _traced_peak(
            lambda: allocation_correlation_matrix(evaluator)
        )
    assert abs(peaks[16] - peaks[4]) <= block + 8 * 16 * 16
    assert peaks[16] <= 3 * block + 64 * 1024


def test_year_long_translation_holds_a_few_rows():
    """One 52-week, 5-minute translation: the two rows it returns, the
    utilization and three boolean masks without ``T_degr``; with it, the
    loop's utilization and one partition more."""
    calendar = TraceCalendar(weeks=52, slot_minutes=5)
    row = 8 * calendar.n_observations
    values = np.random.default_rng(52).lognormal(0.0, 0.5, calendar.n_observations)
    demand = DemandTrace("year", values, calendar)
    translator = QoSTranslator(PoolCommitments.of(theta=0.6))
    for qos, rows in (
        (case_study_qos(m_degr_percent=0), 4),
        (case_study_qos(m_degr_percent=3), 4),
        (case_study_qos(m_degr_percent=3, t_degr_minutes=30), 6),
    ):
        peak, _ = _traced_peak(lambda: translator.translate(demand, qos))
        assert peak <= rows * row, (qos, peak / row)


def test_oracle_evaluate_holds_four_rows():
    """One scalar-oracle ``evaluate`` of a 52-week row: its two float
    buffers, then the deferral search's two integer rows."""
    calendar = TraceCalendar(weeks=52, slot_minutes=5)
    row = 8 * calendar.n_observations
    rng = np.random.default_rng(5)
    simulator = SingleServerSimulator(
        rng.gamma(2.0, 0.2, calendar.n_observations),
        rng.gamma(2.0, 0.5, calendar.n_observations),
        calendar,
    )
    for capacity in (0.5, 1.0, 3.0):
        peak, report = _traced_peak(lambda: simulator.evaluate(capacity))
        assert peak <= 4 * row + 64 * 1024
    assert report.max_deferred_slots > 0


FAST_SEARCH = GeneticSearchConfig(
    seed=0, max_generations=4, stall_generations=2, population_size=6
)

POLICY = QoSPolicy(
    normal=case_study_qos(m_degr_percent=0),
    failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
)


def _framework(servers, **options):
    return ROpus(
        PoolCommitments.of(theta=0.95),
        ResourcePool(homogeneous_servers(servers, cpus=32, racks=2)),
        search_config=FAST_SEARCH,
        **options,
    )


@pytest.fixture
def evaluators(monkeypatch):
    """Every evaluator the planner builds while the test runs."""
    made = []

    class Recorded(PlacementEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for module in (consolidation, failure, sharding):
        monkeypatch.setattr(module, "PlacementEvaluator", Recorded)
    return made


def _matrices(evaluator):
    return evaluator.matrices


def _adopts(evaluator, pairs):
    """Whether the evaluator's matrices are the pairs' own rows, in order."""
    cos1, cos2 = _matrices(evaluator)
    return len(cos1) == len(pairs) and all(
        np.shares_memory(cos1[row], pair.cos1.values)
        and np.shares_memory(cos2[row], pair.cos2.values)
        for row, pair in enumerate(pairs)
    )


def _aliases(evaluator, pairs):
    """Whether the evaluator's matrices share any memory with ``pairs``."""
    cos1, cos2 = _matrices(evaluator)
    return any(
        np.shares_memory(cos1, pair.cos1.values)
        or np.shares_memory(cos2, pair.cos2.values)
        for pair in pairs
    )


class TestOneCopyOfTheTraces:
    def test_monolithic_plan_adopts_the_translated_matrices(self, evaluators):
        demands = scaled_ensemble(8, seed=3, weeks=1, slot_minutes=60)
        plan = _framework(6).plan(demands, POLICY, plan_failures=False)
        pairs = [result.pair for result in plan.translations.values()]
        (placement,) = evaluators
        assert placement.names == [pair.name for pair in pairs]
        assert _adopts(placement, pairs)

    def test_the_adopted_matrices_are_read_only(self, evaluators):
        demands = scaled_ensemble(8, seed=3, weeks=1, slot_minutes=60)
        _framework(6).plan(demands, POLICY, plan_failures=False)
        for matrix in _matrices(evaluators[0]):
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_relax_all_sweep_adopts_the_failure_mode_matrices(self, evaluators):
        demands = scaled_ensemble(8, seed=3, weeks=1, slot_minutes=60)
        plan = _framework(6).plan(demands, POLICY, relax_all_on_failure=True)
        normal = [result.pair for result in plan.translations.values()]
        _, *what_ifs = evaluators
        assert what_ifs and all(
            not _aliases(evaluator, normal) for evaluator in what_ifs
        )
        # Every what-if shares one all-relaxed evaluator (the scratch's
        # memo), whose matrices are one failure-mode translation.
        (relaxed,) = {id(evaluator): evaluator for evaluator in what_ifs}.values()
        assert _adopts(relaxed, relaxed.pairs)

    def test_mixed_modes_and_shards_copy_only_their_own_rows(self, evaluators):
        demands = scaled_ensemble(12, seed=3, weeks=1, slot_minutes=60)
        plan = _framework(8, sharding=3).plan(
            demands, POLICY, relax_all_on_failure=False
        )
        pairs = [result.pair for result in plan.translations.values()]
        # The sharded tier's global evaluator adopts the translation.
        adopted = [e for e in evaluators if _adopts(e, pairs)]
        assert len(adopted) == 1
        # Shards hold a subset; the sweep's mixes relax some workloads.
        copied = [e for e in evaluators if e not in adopted]
        assert any(e.n_workloads < len(pairs) for e in copied)
        assert any(e.n_workloads == len(pairs) for e in copied)
        for evaluator in copied:
            assert not _aliases(evaluator, pairs)
            cos1, cos2 = _matrices(evaluator)
            for row, pair in enumerate(evaluator.pairs):
                assert np.array_equal(cos1[row], pair.cos1.values)
                assert np.array_equal(cos2[row], pair.cos2.values)

    def test_long_trace_placement_holds_no_second_copy(self):
        """A monolithic placement over 12 translated 26-week, 5-minute
        traces. Over the retained pairs it may hold one chunk's budget
        and six rows, plus 1 MiB for the search's own state; the
        correlation seed's few rows fit under that, and no bound term is
        left for an ``(n, T)`` matrix of its own. A second copy of the
        pairs (two more matrices) and a seed's matrix are over it."""
        demands = scaled_ensemble(12, seed=5, weeks=26, slot_minutes=5)
        framework = _framework(6)
        pairs = [
            result.pair for result in framework.translate(demands, POLICY).values()
        ]
        consolidator = Consolidator(
            framework.pool,
            framework.commitments.cos2,
            config=FAST_SEARCH,
            tolerance=framework.tolerance,
        )
        row_bytes = 8 * demands[0].calendar.n_observations
        matrix_bytes = len(pairs) * row_bytes
        bound = evaluation._BATCH_BYTES + 6 * row_bytes + MIB
        # A seed's matrix next to a copy of the pairs is over.
        assert 3 * matrix_bytes > bound
        peak, result = _traced_peak(lambda: consolidator.consolidate(pairs))
        assert result.assignment
        assert peak <= bound
