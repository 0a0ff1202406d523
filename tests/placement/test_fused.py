"""Property tests for the generation-scale fused capacity kernel.

The fused kernel's contract is the strongest one in the repo: its
``fits``/``required_capacity`` answers are **bit-identical** to
:func:`required_capacity_batch` in bisect mode over the same subsets,
because every float32 decision that influenced a
bracket is retroactively validated by one float64 endpoint check, and
rows that fail validation fall back to the batch kernel itself. The
hypothesis suites here pin that equivalence down, the compression tests
pin the run-length translation's decision-equivalence, and the
adversarial test corrupts the float32 late scan to prove the fallback
ladder keeps answers exact even when every fast-path decision is wrong.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement import fused as fused_module
from repro.placement.fused import (
    _compress_row,
    _late_rows_numpy,
    fused_required_capacity,
    translate_rows,
)
from repro.placement.kernels import (
    BatchSimulator,
    required_capacity_batch,
)
from repro.traces.calendar import TraceCalendar

# Same cheap calendar as the batch-kernel suites: one week at 6-hour
# resolution keeps every hypothesis example to 28 observations.
CAL = TraceCalendar(weeks=1, slot_minutes=360)
N = CAL.n_observations
LIMIT = 16.0
TOLERANCE = 0.01

levels = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32)
commitments = st.builds(
    CoSCommitment,
    theta=st.sampled_from([0.5, 0.9, 0.95, 1.0 - 1e-9, 1.0]),
    deadline_minutes=st.sampled_from([0.0, 360.0, 720.0]),
)


@st.composite
def workload_matrices(draw, min_apps=2, max_apps=5):
    n_apps = draw(st.integers(min_value=min_apps, max_value=max_apps))
    cos1 = np.asarray(
        [
            draw(st.lists(levels, min_size=N, max_size=N))
            for _ in range(n_apps)
        ],
        float,
    )
    cos2 = np.asarray(
        [
            draw(st.lists(levels, min_size=N, max_size=N))
            for _ in range(n_apps)
        ],
        float,
    )
    return cos1, cos2


@st.composite
def subset_lists(draw, n_apps, min_subsets=1, max_subsets=4):
    count = draw(st.integers(min_value=min_subsets, max_value=max_subsets))
    subsets = []
    for _ in range(count):
        members = draw(
            st.sets(
                st.integers(min_value=0, max_value=n_apps - 1),
                min_size=1,
                max_size=n_apps,
            )
        )
        subsets.append(tuple(sorted(members)))
    return subsets


def assert_plans_identical(reference, candidate):
    assert len(reference.results) == len(candidate.results)
    for ref, fus in zip(reference.results, candidate.results):
        assert ref.fits == fus.fits
        assert ref.required_capacity == fus.required_capacity


class TestBitIdentityWithBatch:
    @settings(max_examples=50, deadline=None)
    @given(workload_matrices(), commitments, st.data())
    def test_matches_batch_bisect(self, matrices, commitment, data):
        cos1, cos2 = matrices
        subsets = data.draw(subset_lists(cos1.shape[0]))
        limits = np.full(len(subsets), LIMIT)
        reference = required_capacity_batch(
            BatchSimulator.from_subsets(cos1, cos2, subsets, CAL),
            limits,
            commitment,
            tolerance=TOLERANCE,
        )
        result = fused_required_capacity(
            cos1, cos2, subsets, CAL, limits, commitment, tolerance=TOLERANCE
        )
        assert_plans_identical(reference, result)
        stats = result.stats
        assert stats.rows == len(subsets)
        assert stats.fused_rows + stats.f32_retries <= stats.rows

    def test_peak_screen_rows_short_circuit(self):
        cos1 = np.full((1, N), 30.0)
        cos2 = np.zeros((1, N))
        result = fused_required_capacity(
            cos1,
            cos2,
            [(0,)],
            CAL,
            np.array([LIMIT]),
            CoSCommitment(theta=0.9),
        )
        assert not result.results[0].fits
        assert result.results[0].required_capacity == float("inf")
        # Screened by float64 peak arithmetic: no kernel call, and the
        # row counts as neither fused nor retried.
        assert result.stats.kernel_calls == 0
        assert result.stats.fused_rows == 0
        assert result.stats.f32_retries == 0

    def test_rejects_bad_limits_and_tolerance(self):
        cos1 = np.ones((2, N))
        cos2 = np.ones((2, N))
        with pytest.raises(SimulationError):
            fused_required_capacity(
                cos1, cos2, [(0,)], CAL, np.array([1.0, 2.0]),
                CoSCommitment(theta=0.9),
            )
        with pytest.raises(SimulationError):
            fused_required_capacity(
                cos1, cos2, [(0,)], CAL, np.array([0.0]),
                CoSCommitment(theta=0.9),
            )
        with pytest.raises(SimulationError):
            fused_required_capacity(
                cos1, cos2, [(0,)], CAL, np.array([4.0]),
                CoSCommitment(theta=0.9), tolerance=0.0,
            )


class _Pinned:
    """Stands in for ``st.data()`` in an explicit example: one fixed draw."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


def _slot0_matrices(cos1, cos2):
    """Rows with all their demand in slot 0, at float32-drawn levels."""
    matrices = np.zeros((2, len(cos1), N))
    matrices[0, :, 0] = np.float32(cos1)
    matrices[1, :, 0] = np.float32(cos2)
    return matrices[0], matrices[1]


class TestCompression:
    @settings(max_examples=50, deadline=None)
    @given(workload_matrices(min_apps=1, max_apps=3), commitments, st.data())
    # Backlog 2.7e-8 over a zero deadline window: late. Float32 totals
    # rounded the slot's 14.86872149 below the capacity and said not.
    @example(
        matrices=_slot0_matrices([4.0, 3.98227811], [3.62054133, 3.26590204]),
        commitment=CoSCommitment(theta=0.5, deadline_minutes=0.0),
        data=_Pinned(14.868721458479296),
    )
    def test_compressed_decisions_match_uncompressed(
        self, matrices, commitment, data
    ):
        """The run-length translation preserves the late decision.

        For any candidate capacity at or above the compression floor
        ``max(low0, theta_cap)`` the compressed series, which stay in
        float64 until the fused search stacks them as float32, must
        report *late* exactly when the uncompressed total-demand
        recursion does.
        """
        cos1, cos2 = matrices
        deadline = commitment.deadline_slots(CAL)
        if not 0 <= deadline < N:
            return
        batch = BatchSimulator.from_subsets(
            cos1, cos2, [tuple(range(cos1.shape[0]))], CAL
        )
        translation = translate_rows(
            batch, np.array([0]), commitment, TOLERANCE
        )[0]
        total = cos1.sum(axis=0) + cos2.sum(axis=0)
        arrivals = np.concatenate([[0.0], np.cumsum(cos2.sum(axis=0))])
        floor = max(translation.low0, translation.theta_cap)
        capacity = data.draw(
            st.floats(
                min_value=float(floor),
                max_value=float(floor) + LIMIT,
                allow_nan=False,
            )
        )

        def late_direct():
            backlog = 0.0
            for u in range(N):
                backlog = max(0.0, backlog + total[u] - capacity)
                if u < deadline:
                    continue
                window = arrivals[u + 1] - arrivals[u - deadline + 1]
                if backlog > window + 1e-9:
                    return True
            return False

        def late_compressed():
            backlog = 0.0
            for value, guard in zip(translation.totals, translation.guards):
                backlog = max(0.0, backlog + value - capacity)
                if backlog > guard:
                    return True
            return False

        assert late_direct() == late_compressed()

    def test_all_zero_floor_backlog_compresses_away(self):
        total = np.array([1.0, 1.0, 1.0, 1.0])
        guard = np.full(4, 5.0)
        floor = np.zeros(4)
        totals_c, guards_c = _compress_row(total, guard, floor)
        assert totals_c.size == 0 and guards_c.size == 0

    def test_drains_separate_runs_and_reset_exactly(self):
        total = np.array([3.0, 3.0, 0.0, 0.0, 4.0, 0.5])
        guard = np.full(6, 100.0)
        # Floor backlog at capacity 2: two active runs separated by a gap.
        floor = np.array([1.0, 2.0, 0.0, 0.0, 2.0, 0.5])
        totals_c, guards_c = _compress_row(total, guard, floor)
        assert totals_c.dtype == np.float64
        # run(2) + drain + run(2) — the trailing run ends the row, but
        # still carries its drain for rectangular stacking safety.
        assert totals_c.tolist() == [3.0, 3.0, -2.0, 4.0, 0.5, -0.5]
        assert np.isinf(guards_c[2]) and np.isinf(guards_c[5])
        # The drain resets the recursion to zero for any capacity >= the
        # floor the compression was computed against.
        for capacity in (2.0, 2.5, 10.0):
            backlog = 0.0
            trajectory = []
            for value in totals_c.astype(float):
                backlog = max(0.0, backlog + value - capacity)
                trajectory.append(backlog)
            assert trajectory[2] == 0.0

    def test_numpy_late_kernel_handles_empty_width(self):
        verdict = _late_rows_numpy(
            np.zeros((3, 0), dtype=np.float32),
            np.zeros((3, 0), dtype=np.float32),
            np.ones(3, dtype=np.float32),
        )
        assert verdict.tolist() == [False, False, False]


class TestVerificationFallback:
    @settings(max_examples=20, deadline=None)
    @given(workload_matrices(), commitments, st.data())
    def test_corrupted_fast_path_still_bit_identical(
        self, matrices, commitment, data
    ):
        """Even an always-wrong float32 scan cannot corrupt the plan.

        An adversarial late kernel that declares every candidate late
        forces the fast path to plan ``no fit`` for every row; the
        float64 verification catches each misjudgement and the batch
        fallback re-solves those rows, so answers stay bit-identical
        and the retries are counted.
        """
        cos1, cos2 = matrices
        subsets = data.draw(subset_lists(cos1.shape[0]))
        limits = np.full(len(subsets), LIMIT)
        batch = BatchSimulator.from_subsets(cos1, cos2, subsets, CAL)
        reference = required_capacity_batch(
            batch, limits, commitment, tolerance=TOLERANCE
        )

        def always_late(totals, guards, capacities):
            return np.ones(totals.shape[0], dtype=bool)

        original = fused_module._late_rows_numpy
        fused_module._late_rows_numpy = always_late
        try:
            result = fused_required_capacity(
                cos1,
                cos2,
                subsets,
                CAL,
                limits,
                commitment,
                tolerance=TOLERANCE,
            )
        finally:
            fused_module._late_rows_numpy = original
        assert_plans_identical(reference, result)
        feasible = sum(1 for ref in reference.results if ref.fits)
        peak_screened = int((batch.peaks > limits + 1e-9).sum())
        # Every feasible candidate row was misjudged as no-fit and must
        # have been retried; genuinely infeasible rows verify fine.
        assert result.stats.f32_retries >= min(feasible, 1)
        assert (
            result.stats.fused_rows + result.stats.f32_retries
            == len(subsets) - peak_screened
        )


def _variable_pairs(cal, seed=11, n_apps=5):
    from repro.traces.allocation import AllocationTrace, CoSAllocationPair

    rng = np.random.default_rng(seed)
    n = cal.n_observations
    pairs = []
    for index in range(n_apps):
        cos1 = rng.gamma(2.0, 0.8, size=n)
        cos2 = rng.gamma(1.5, 1.0, size=n)
        pairs.append(
            CoSAllocationPair(
                f"app{index}",
                AllocationTrace(f"app{index}.cos1", cos1, cal),
                AllocationTrace(f"app{index}.cos2", cos2, cal),
            )
        )
    return pairs


class TestEvaluatorIntegration:
    def _evaluator(self, kernel, instrumentation=None):
        from repro.placement.evaluation import PlacementEvaluator

        pairs = _variable_pairs(CAL)
        return PlacementEvaluator(
            pairs,
            CoSCommitment(theta=0.95, deadline_minutes=360.0),
            tolerance=TOLERANCE,
            kernel=kernel,
            instrumentation=instrumentation,
        )

    ITEMS = [
        (16.0, (0, 1)),
        (16.0, (2, 3, 4)),
        (16.0, (0, 2, 4)),
        (4.0, (1, 3)),
        (16.0, (0, 1, 2, 3, 4)),
    ]

    def test_fused_evaluator_matches_batch(self):
        batch = self._evaluator("batch").evaluate_groups(self.ITEMS)
        fused = self._evaluator("fused").evaluate_groups(self.ITEMS)
        for ref, fus in zip(batch, fused):
            assert ref.fits == fus.fits
            assert ref.required == fus.required
            assert ref.utilization == fus.utilization

    def test_fused_counters_recorded_uniformly(self):
        from repro.engine import Instrumentation

        expected = {
            "kernel.rows",
            "kernel.calls",
            "kernel.bracket_iterations",
            "kernel.fused_rows",
            "kernel.f32_retries",
            "kernel.row_evaluations",
            "kernel.backlog_rows",
        }
        for kernel in ("batch", "analytic", "fused"):
            instr = Instrumentation()
            evaluator = self._evaluator(kernel, instrumentation=instr)
            snapshot = instr.counters()
            evaluator.evaluate_groups(self.ITEMS)
            deltas = instr.counters_since(snapshot)
            assert expected <= set(deltas), (kernel, deltas)
            if kernel == "fused":
                assert deltas["kernel.fused_rows"] > 0
            else:
                assert deltas["kernel.fused_rows"] == 0.0

    def test_worker_roundtrip_matches_driver(self):
        import pickle

        from repro.placement.evaluation import evaluate_groups_worker
        from repro.placement.kernels import KERNEL_COUNTERS

        driver = self._evaluator("fused")
        reference = driver.evaluate_groups(self.ITEMS)
        payload = pickle.loads(pickle.dumps(driver.worker_payload()))
        items = tuple(
            (limit, tuple(sorted(rows)), None) for limit, rows in self.ITEMS
        )
        evaluations, stats = evaluate_groups_worker(payload, items)
        assert len(stats) == len(KERNEL_COUNTERS)
        for ref, fus in zip(reference, evaluations):
            assert ref.fits == fus.fits
            assert ref.required == fus.required
