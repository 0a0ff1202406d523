"""Tests for the shared placement evaluator."""

import numpy as np
import pytest

from repro.core.cos import CoSCommitment
from repro.engine import ExecutionEngine
from repro.engine.dispatch import split_chunks
from repro.exceptions import PlacementError
from repro.placement.evaluation import (
    KERNELS,
    PlacementEvaluator,
    ServerEvaluation,
    evaluate_groups_worker,
)
from repro.placement.kernels import KERNEL_COUNTERS, BatchSearchStats
from repro.resources.server import ServerSpec
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


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
