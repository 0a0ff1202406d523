"""Tests for the shared placement evaluator."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment, PoolCommitments
from repro.core.qos import case_study_qos
from repro.core.translation import QoSTranslator
from repro.engine import ExecutionEngine
from repro.engine.dispatch import split_chunks
from repro.engine.instrumentation import Instrumentation
from repro.exceptions import PlacementError
from repro.placement import evaluation
from repro.placement.evaluation import (
    KERNELS,
    PlacementEvaluator,
    ServerEvaluation,
    evaluate_groups_worker,
    witness_slots,
)
from repro.placement.kernels import (
    KERNEL_COUNTERS,
    BatchSearchStats,
    BatchSimulator,
)
from repro.resources.server import ServerSpec
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar
from repro.workloads.ensemble import scaled_ensemble


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def constant_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", np.full(n, cos1_level), cal),
        AllocationTrace(f"{name}.cos2", np.full(n, cos2_level), cal),
    )


@pytest.fixture
def evaluator(cal):
    pairs = [
        constant_pair(cal, "a", 1.0, 2.0),
        constant_pair(cal, "b", 0.5, 1.0),
        constant_pair(cal, "c", 2.0, 4.0),
    ]
    return PlacementEvaluator(pairs, CoSCommitment(theta=0.9), tolerance=0.01)


class TestBasics:
    def test_n_workloads_and_names(self, evaluator):
        assert evaluator.n_workloads == 3
        assert evaluator.names == ["a", "b", "c"]
        assert evaluator.index_of("b") == 1

    def test_unknown_name(self, evaluator):
        with pytest.raises(PlacementError):
            evaluator.index_of("nope")

    def test_peak_allocations(self, evaluator):
        peaks = evaluator.peak_allocations()
        assert peaks.tolist() == [3.0, 1.5, 6.0]

    def test_duplicate_names_rejected(self, cal):
        pairs = [constant_pair(cal, "a", 1, 1), constant_pair(cal, "a", 1, 1)]
        with pytest.raises(PlacementError):
            PlacementEvaluator(pairs, CoSCommitment(theta=0.9))

    def test_empty_rejected(self):
        with pytest.raises(PlacementError):
            PlacementEvaluator([], CoSCommitment(theta=0.9))


class TestEvaluateGroup:
    def test_empty_group_fits_trivially(self, evaluator):
        evaluation = evaluator.evaluate_group([], ServerSpec("s", 16))
        assert evaluation.fits
        assert evaluation.required == 0.0

    def test_feasible_group(self, evaluator):
        evaluation = evaluator.evaluate_group([0, 1], ServerSpec("s", 16))
        assert evaluation.fits
        # Constant demand 1.5 CoS1 + 3.0 CoS2 at theta 0.9 needs ~4.2.
        assert 4.0 <= evaluation.required <= 4.6
        assert 0 < evaluation.utilization <= 1

    def test_infeasible_group(self, cal):
        pairs = [constant_pair(cal, "big", 20.0, 0.0)]
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        evaluation = evaluator.evaluate_group([0], ServerSpec("s", 16))
        assert not evaluation.fits
        assert evaluation.required == float("inf")

    def test_caching_returns_same_object(self, evaluator):
        server = ServerSpec("s", 16)
        first = evaluator.evaluate_group([0, 2], server)
        second = evaluator.evaluate_group([2, 0], server)  # order-insensitive
        assert first is second

    def test_cache_distinguishes_capacity(self, evaluator):
        small = evaluator.evaluate_group([0], ServerSpec("s", 8))
        large = evaluator.evaluate_group([0], ServerSpec("s", 16))
        assert small.utilization > large.utilization

    def test_out_of_range_indices(self, evaluator):
        with pytest.raises(PlacementError):
            evaluator.evaluate_group([99], ServerSpec("s", 16))

    def test_repeated_key_in_one_batch_counts_as_a_hit(self, cal):
        pairs = [
            constant_pair(cal, "a", 1.0, 2.0),
            constant_pair(cal, "b", 0.5, 1.0),
        ]
        instrumentation = Instrumentation()
        evaluator = PlacementEvaluator(
            pairs, CoSCommitment(theta=0.9), instrumentation=instrumentation
        )
        items = [(16.0, [0, 1]), (16.0, [1, 0]), (8.0, [0]), (16.0, [0, 1])]
        evaluator.evaluate_groups(items)
        counters = instrumentation.counters()
        assert counters["placement.cache_misses"] == 2
        assert counters["placement.cache_hits"] == 2
        assert (
            counters["placement.cache_hits"] + counters["placement.cache_misses"]
            == len(items)
        )


class TestSearchResult:
    def test_full_report_available(self, evaluator):
        result = evaluator.search_result([0, 1, 2], ServerSpec("s", 16))
        assert result.fits
        assert result.report is not None
        assert result.report.theta_measured >= 0.9


class TestBenchmarkWorkerContract:
    """What ``benchmarks/record/tracing.py`` pins of the worker path.

    The benchmark of record builds ``(limit, rows, None)`` triples
    itself, chunks them with ``split_chunks`` and maps
    :func:`evaluate_groups_worker` over a session for whatever kernel
    the framework runs, and reads the ``kernel.fused_rows`` /
    ``kernel.f32_retries`` counters the stats are folded into. A change
    to the item shape, the ``(evaluations, stats)`` return or those
    counter names must fail here, not first in the ``perf-smoke`` job.
    """

    LIMIT = 16.0
    GROUPS = [(0, 1), (2, 3), (0, 2, 4), (1,), (0, 1, 2, 3, 4)]

    @pytest.fixture
    def pairs(self, cal):
        rng = np.random.default_rng(11)
        n = cal.n_observations
        return [
            CoSAllocationPair(
                f"app{index}",
                AllocationTrace(f"app{index}.cos1", rng.gamma(2.0, 0.8, n), cal),
                AllocationTrace(f"app{index}.cos2", rng.gamma(1.5, 1.0, n), cal),
            )
            for index in range(5)
        ]

    def _evaluator(self, pairs, kernel):
        return PlacementEvaluator(
            pairs, CoSCommitment(theta=0.95), tolerance=0.01, kernel=kernel
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_triples_through_the_worker(self, pairs, kernel):
        payload = self._evaluator(pairs, kernel).worker_payload()
        items = [(self.LIMIT, group, None) for group in self.GROUPS]
        chunks = split_chunks(items, 2)
        with ExecutionEngine.serial() as engine:
            with engine.session(payload) as session:
                results = session.map(evaluate_groups_worker, chunks)
        reference = self._evaluator(pairs, "batch").evaluate_groups(
            [(self.LIMIT, group) for group in self.GROUPS]
        )
        assert len(results) == len(chunks)
        solved = []
        for chunk, (evaluations, stats) in zip(chunks, results):
            assert len(evaluations) == len(chunk)
            assert isinstance(stats, BatchSearchStats)
            assert len(stats) == len(KERNEL_COUNTERS)
            # Drivers fold the stats into counters by position.
            counters = dict(zip(KERNEL_COUNTERS, stats))
            assert counters["kernel.rows"] == len(chunk)
            assert (counters["kernel.fused_rows"] > 0) == (kernel == "fused")
            assert counters["kernel.f32_retries"] == 0
            solved.extend(evaluations)
        for ours, batch in zip(solved, reference):
            assert isinstance(ours, ServerEvaluation)
            assert ours.fits == batch.fits
            if kernel == "analytic" and batch.fits:
                assert abs(ours.required - batch.required) <= 0.01 + 1e-9
            else:
                assert ours.required == batch.required


# --- the witness screen: a proof of infeasibility, never a guess ---

#: A single-week and a multi-week calendar (28 and 42 observations).
WITNESS_CALENDARS = (
    TraceCalendar(weeks=1, slot_minutes=360),
    TraceCalendar(weeks=3, slot_minutes=720),
)


@st.composite
def witness_cases(draw):
    """(calendar, cos1, cos2, subsets, limits, commitment) on the corners.

    Workloads are all-zero, CoS1-only, CoS2 with request-free slots
    (theta groups with zero requests), or random over magnitudes
    1e-3 ... 1e3; subsets hold 1 to 64 members; limits differ within
    the batch and sit on the subset's CoS1 peak (± 1e-9), its total
    peak or in between; deadlines include 0 (deadline-bound rows).
    """
    calendar = draw(st.sampled_from(WITNESS_CALENDARS))
    length = calendar.n_observations
    n = draw(st.integers(min_value=1, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cos1 = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, length))
    cos2 = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, length))
    for row in range(n):
        kind = draw(
            st.sampled_from(["random", "all_zero", "cos1_only", "gappy_cos2"])
        )
        if kind == "all_zero":
            cos1[row] = cos2[row] = 0.0
        elif kind == "cos1_only":
            cos2[row] = 0.0
        elif kind == "gappy_cos2":
            cos2[row, rng.random(length) < 0.5] = 0.0
    subsets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            .map(sorted)
            .map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    batch = BatchSimulator.from_subsets(cos1, cos2, subsets, calendar)
    limits = np.empty(len(subsets))
    for row in range(len(subsets)):
        peak = float(batch._cos1[row].max())
        total = float((batch._cos1[row] + batch._cos2[row]).max())
        limit = draw(
            st.sampled_from(
                [
                    peak,
                    peak + 1e-9,
                    peak - 1e-9,
                    total,
                    (peak + total) / 2,
                    total * draw(st.floats(0.1, 2.0)),
                ]
            )
        )
        limits[row] = limit if limit > 0 else 0.125
    slot = calendar.slot_minutes
    commitment = CoSCommitment(
        theta=draw(st.sampled_from([0.5, 0.9, 0.95, 1.0 - 1e-9, 1.0])),
        deadline_minutes=draw(st.sampled_from([0.0, slot, 2.0 * length * slot])),
    )
    return calendar, cos1, cos2, subsets, limits, commitment


class TestWitnessScreen:
    """Every row the witness rejects, ``decide`` rejects at its limit."""

    @settings(max_examples=150, deadline=None)
    @given(witness_cases())
    def test_rejects_only_what_decide_rejects(self, case):
        calendar, cos1, cos2, subsets, limits, commitment = case
        rejected = evaluation._witness_rejects(
            cos1,
            cos2,
            witness_slots(cos1, cos2, calendar),
            subsets,
            limits,
            commitment,
        )
        batch = BatchSimulator.from_subsets(cos1, cos2, subsets, calendar)
        verdicts, _ = batch.decide(None, limits, commitment)
        assert not np.any(rejected & verdicts)

    @settings(max_examples=100, deadline=None)
    @given(witness_cases())
    def test_every_group_as_witness_is_the_peak_and_theta_gates(self, case):
        """With every theta group a witness and no deadline to miss, the
        screen and ``decide`` must agree row for row — float for float."""
        calendar, cos1, cos2, subsets, limits, commitment = case
        slot = calendar.slot_minutes
        no_deadline = CoSCommitment(
            theta=commitment.theta,
            deadline_minutes=2.0 * calendar.n_observations * slot,
        )
        with mock.patch.object(evaluation, "_WITNESS_GROUPS", 10**6):
            witness = witness_slots(cos1, cos2, calendar)
        assert witness.shape[1] == calendar.weeks * calendar.slots_per_day
        rejected = evaluation._witness_rejects(
            cos1, cos2, witness, subsets, limits, no_deadline
        )
        batch = BatchSimulator.from_subsets(cos1, cos2, subsets, calendar)
        verdicts, _ = batch.decide(None, limits, no_deadline)
        np.testing.assert_array_equal(rejected, ~verdicts)

    def test_table_ranks_groups_by_peak_total(self):
        calendar = TraceCalendar(weeks=2, slot_minutes=360)
        cos1 = np.zeros((1, calendar.n_observations))
        cos2 = np.zeros((1, calendar.n_observations))
        # Week 1, slot 2 is hottest (on day 5), then week 0, slot 1.
        cos2[0, 28 + 5 * 4 + 2] = 9.0
        cos1[0, 3 * 4 + 1] = 5.0
        witness = witness_slots(cos1, cos2, calendar)
        assert witness.shape == (1, evaluation._WITNESS_GROUPS, 7)
        assert witness[0, 0].tolist() == [28 + day * 4 + 2 for day in range(7)]
        assert witness[0, 1].tolist() == [day * 4 + 1 for day in range(7)]


def _ensemble_pairs(seed=2006, n_apps=18, weeks=1, slot_minutes=60):
    demands = scaled_ensemble(
        n_apps, seed=seed, weeks=weeks, slot_minutes=slot_minutes
    )
    translator = QoSTranslator(PoolCommitments.of(theta=0.95))
    qos = case_study_qos(m_degr_percent=0)
    return [translator.translate(demand, qos).pair for demand in demands]


@pytest.mark.parametrize("kernel", ["batch", "fused"])
def test_witness_off_gives_identical_evaluations(kernel, monkeypatch):
    """Screening changes which rows reach the kernel, never an answer."""
    pairs = _ensemble_pairs()
    rng = np.random.default_rng(7)
    items = [
        (
            float(rng.choice([8.0, 16.0, 24.0])),
            sorted(rng.choice(len(pairs), size=int(size), replace=False)),
        )
        for size in rng.integers(1, 9, size=200)
    ]

    def solve():
        instrumentation = Instrumentation()
        evaluator = PlacementEvaluator(
            pairs,
            PoolCommitments.of(theta=0.95).cos2,
            kernel=kernel,
            instrumentation=instrumentation,
        )
        return evaluator.evaluate_groups(items), instrumentation.counters()

    screened, with_witness = solve()
    with monkeypatch.context() as patch:
        patch.setattr(
            evaluation,
            "_witness_rejects",
            lambda cos1, cos2, witness, subsets, *rest: np.zeros(
                len(subsets), dtype=bool
            ),
        )
        unscreened, without = solve()
    assert screened == unscreened
    rejects = with_witness["kernel.witness_rejects"]
    assert rejects > 0 and without["kernel.witness_rejects"] == 0
    assert rejects <= sum(not evaluation.fits for evaluation in screened)
    assert with_witness["kernel.rows"] == without["kernel.rows"]
    for name in ("kernel.bracket_iterations", "kernel.backlog_rows"):
        assert with_witness[name] == without[name]
    saved = without["kernel.row_evaluations"] - with_witness["kernel.row_evaluations"]
    assert 0 <= saved <= rejects


# --- bounded working memory: a chunked batch is the unchunked batch ---


def _batched(evaluator, items, kernel):
    assert evaluator.kernel == kernel
    (solved,), stats = evaluation._evaluate_items_batched(
        ((evaluator.worker_payload(), items),)
    )
    return solved, stats


class TestChunkedBatches:
    """Chunks change how many ``decide`` calls a batch takes, nothing else."""

    #: One week of 30-minute slots: an aggregated row (``_ROW_ARRAYS``
    #: words per slot) outweighs the screen gathers of a subset of up to
    #: eight members, so a budget of ``m`` rows makes chunks of ``m``.
    CALENDAR = dict(weeks=1, slot_minutes=30)

    @pytest.fixture(scope="class")
    def pairs(self):
        return _ensemble_pairs(n_apps=24, **self.CALENDAR)

    @pytest.fixture(scope="class")
    def items(self, pairs):
        """Mixed widths and limits: 40 doomed items, 40 roomy ones, then
        250 drawn at random."""
        rng = np.random.default_rng(30)
        everyone = tuple(range(len(pairs)))
        doomed = [(1.0, everyone[: 4 + index % 5]) for index in range(40)]
        roomy = [(64.0, (index % len(pairs),)) for index in range(40)]
        drawn = [
            (
                float(rng.choice([8.0, 16.0, 24.0])),
                tuple(
                    sorted(
                        int(row)
                        for row in rng.choice(
                            len(pairs), size=int(size), replace=False
                        )
                    )
                ),
            )
            for size in rng.integers(1, 9, size=250)
        ]
        return [(limit, rows, None) for limit, rows in doomed + roomy + drawn]

    def _evaluator(self, pairs, kernel):
        return PlacementEvaluator(
            pairs, PoolCommitments.of(theta=0.95).cos2, kernel=kernel
        )

    def _chunk_sizes(self, monkeypatch, rows_per_chunk, length):
        """Budget ``rows_per_chunk`` aggregated rows; spy on the chunks."""
        monkeypatch.setattr(
            evaluation,
            "_BATCH_BYTES",
            rows_per_chunk * evaluation._ROW_ARRAYS * 8 * (length + 1),
        )
        sizes = []
        chunks = evaluation._chunks

        def spy(*args):
            for start, stop in chunks(*args):
                sizes.append(stop - start)
                yield start, stop

        monkeypatch.setattr(evaluation, "_chunks", spy)
        return sizes

    @pytest.mark.parametrize("kernel", ["batch", "fused", "analytic"])
    def test_every_chunking_gives_the_same_answers(
        self, pairs, items, kernel, monkeypatch
    ):
        evaluator = self._evaluator(pairs, kernel)
        length = evaluator.calendar.n_observations
        tile = BatchSimulator(
            np.zeros((1, length)), np.zeros((1, length)), evaluator.calendar
        )._tile_rows
        assert 1 < tile < len(items) - 1
        reference = None
        for rows_per_chunk in (len(items), 1, tile, tile + 1):
            with monkeypatch.context() as patch:
                sizes = self._chunk_sizes(patch, rows_per_chunk, length)
                solved, stats = _batched(evaluator, items, kernel)
            assert sum(sizes) == len(items)
            assert max(sizes) == rows_per_chunk
            assert stats.rows == len(items)
            if reference is None:
                assert sizes == [len(items)]
                reference = solved, stats
                continue
            assert solved == reference[0]
            assert stats._replace(kernel_calls=0) == reference[1]._replace(
                kernel_calls=0
            )
            assert stats.kernel_calls >= reference[1].kernel_calls

    def test_a_chunk_the_screen_settles_costs_no_solve(
        self, pairs, items, monkeypatch
    ):
        """The first chunk is all doomed, the second all roomy: the first
        makes no kernel call, the second has no witness reject."""
        evaluator = self._evaluator(pairs, "batch")
        length = evaluator.calendar.n_observations
        for start in (0, 40):
            with monkeypatch.context() as patch:
                self._chunk_sizes(patch, 40, length)
                solved, stats = _batched(
                    evaluator, items[start : start + 40], "batch"
                )
            if start == 0:
                assert stats.witness_rejects == 40
                assert stats.kernel_calls == stats.row_evaluations == 0
                assert solved == [evaluation._REJECTED] * 40
            else:
                assert stats.witness_rejects == 0
                assert all(answer.fits for answer in solved)
        with monkeypatch.context() as patch:
            sizes = self._chunk_sizes(patch, 40, length)
            together, stats = _batched(evaluator, items[:80], "batch")
        assert sizes == [40, 40]
        assert stats.witness_rejects == 40
        assert together[:40] == [evaluation._REJECTED] * 40
        assert all(answer.fits for answer in together[40:])

    @pytest.mark.parametrize("kernel", ["batch", "fused", "analytic"])
    def test_empty_input(self, pairs, kernel):
        solved, stats = _batched(self._evaluator(pairs, kernel), [], kernel)
        assert solved == []
        assert stats == BatchSearchStats(rows=0)

    def test_chunks_stay_in_budget_counting_the_widest_member(
        self, monkeypatch
    ):
        """Each run costs ``m × max(row, widest × member)`` and is maximal;
        a lone item over budget is still a run."""
        length, groups = 336, 3
        row = evaluation._ROW_ARRAYS * 8 * (length + 1)
        member = evaluation._SCREEN_ARRAYS * 8 * 7 * groups
        monkeypatch.setattr(evaluation, "_BATCH_BYTES", 10 * row)
        rng = np.random.default_rng(5)
        items = [
            (16.0, tuple(range(int(width))), None)
            for width in rng.integers(1, 30, size=400)
        ]

        def cost(run):
            widest = max(len(rows) for _, rows, _ in run)
            return len(run) * max(row, widest * member)

        runs = list(evaluation._chunks(items, length, groups))
        assert runs[0][0] == 0 and runs[-1][1] == len(items)
        for (start, stop), (following, _) in zip(
            runs, runs[1:] + [(None, None)]
        ):
            run = items[start:stop]
            assert cost(run) <= 10 * row or len(run) == 1
            if following is not None:
                assert following == stop
                assert cost(items[start : stop + 1]) > 10 * row
        assert list(evaluation._chunks([], length, groups)) == []
