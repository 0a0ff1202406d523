"""Property tests for the batched capacity-search kernels.

The kernels' contract comes in two strengths and both are pinned down
here with hypothesis, against the scalar oracle
(:meth:`SingleServerSimulator.evaluate`, reached row by row through
:meth:`BatchSimulator.simulator_for`):

* the decision function (:meth:`BatchSimulator.decide`) returns the
  oracle's ``satisfies`` verdict on every row, gated and tiled or not;
  and :func:`required_capacity_batch` in its default ``mode="bisect"``
  returns the scalar search's ``fits`` and ``required_capacity`` bit
  for bit (its results carry no report);
* ``mode="analytic"`` only promises *tolerance-equivalent* answers —
  same fits verdict, required capacity within the search tolerance, and
  every returned capacity verified to satisfy the commitment by a fresh
  scalar measurement.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement import kernels
from repro.placement.kernels import BatchSimulator, required_capacity_batch
from repro.placement.required_capacity import required_capacity
from repro.placement.simulator import SingleServerSimulator
from repro.traces.calendar import DAYS_PER_WEEK, TraceCalendar

# One week at 6-hour resolution: 28 observations per trace keeps each
# hypothesis example cheap while exercising the (week, slot-of-day)
# theta reduction on a non-trivial calendar.
CAL = TraceCalendar(weeks=1, slot_minutes=360)
N = CAL.n_observations
LIMIT = 16.0
TOLERANCE = 0.01

levels = st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32)
capacity_values = st.floats(
    min_value=0.125, max_value=LIMIT, allow_nan=False, width=32
)
# 1 - 1e-9 and 1.0 exercise the theta ~= 1 edge where the analytic
# threshold sits at (or beyond) the trace's full-demand capacity;
# deadline 0 makes any deferral fatal (the all-deferred edge).
commitments = st.builds(
    CoSCommitment,
    theta=st.sampled_from([0.5, 0.9, 0.95, 1.0 - 1e-9, 1.0]),
    deadline_minutes=st.sampled_from([0.0, 360.0, 720.0]),
)


@st.composite
def traces(draw):
    cos1 = np.asarray(draw(st.lists(levels, min_size=N, max_size=N)), float)
    cos2 = np.asarray(draw(st.lists(levels, min_size=N, max_size=N)), float)
    return cos1, cos2


@st.composite
def trace_stacks(draw, min_rows=1, max_rows=3):
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    stack = [draw(traces()) for _ in range(rows)]
    cos1 = np.stack([cos1 for cos1, _ in stack])
    cos2 = np.stack([cos2 for _, cos2 in stack])
    return cos1, cos2


def scalar_reports(cos1, cos2, capacities):
    return [
        SingleServerSimulator(c1, c2, CAL).evaluate(cap)
        for c1, c2, cap in zip(cos1, cos2, capacities)
    ]


class TestDecisionDeadline:
    """The pass/fail deferral check must match the exact FIFO drain."""

    @settings(max_examples=50, deadline=None)
    @given(trace_stacks(), commitments, st.data())
    def test_verdict_matches_exact_measurement(self, stack, commitment, data):
        cos1, cos2 = stack
        rows = cos1.shape[0]
        capacities = np.asarray(
            data.draw(
                st.lists(capacity_values, min_size=rows, max_size=rows)
            ),
            float,
        )
        batch = BatchSimulator(cos1, cos2, CAL)
        exact = [
            batch.simulator_for(row)
            .evaluate(capacity)
            .satisfies(commitment, CAL)
            for row, capacity in enumerate(capacities)
        ]
        quick, _ = batch.decide(None, capacities, commitment)
        np.testing.assert_array_equal(quick, exact)

    @settings(max_examples=25, deadline=None)
    @given(trace_stacks(min_rows=2, max_rows=3), commitments)
    def test_gated_rows_agree_on_satisfies(self, stack, commitment):
        """A gate may drop a row only when the oracle fails it too."""
        cos1, cos2 = stack
        rows = cos1.shape[0]
        capacities = np.full(rows, 2.0)
        batch = BatchSimulator(cos1, cos2, CAL)
        verdicts, backlog_rows = batch.decide(None, capacities, commitment)
        assert 0 <= backlog_rows <= rows
        scalars = scalar_reports(cos1, cos2, capacities)
        for row, scalar in enumerate(scalars):
            assert bool(verdicts[row]) == scalar.satisfies(commitment, CAL)


# --- the decision function against the oracle, on the hostile corners ---

#: Rows per decision tile under test (the production tile holds
#: thousands of rows of these short traces).
TILE = 3

#: A single-week and a multi-week calendar (28 and 42 observations).
CALENDARS = (CAL, TraceCalendar(weeks=3, slot_minutes=720))


@st.composite
def hostile_rows(draw, length):
    """One (cos1, cos2) row from the corners the gates must survive."""
    kind = draw(
        st.sampled_from(
            [
                "random",
                "all_zero",
                "constant_cos2",
                "cos1_only",
                "bursty",
                "cos1_plateau",
            ]
        )
    )
    series = st.lists(levels, min_size=length, max_size=length)
    cos1 = np.asarray(draw(series), float)
    if kind == "all_zero":
        cos1 = cos2 = np.zeros(length)
    elif kind == "cos1_plateau":
        # Every slot sits at the peak, so a capacity at (or 1e-9 under)
        # the peak leaves c - cos1 at zero (or below) in all of them.
        cos1 = np.full(length, draw(levels))
        cos2 = np.asarray(draw(series), float)
    elif kind == "cos1_only":
        cos2 = np.zeros(length)
    elif kind == "constant_cos2":
        cos2 = np.full(length, draw(levels))
    elif kind == "bursty":
        cos1 = np.zeros(length)
        cos2 = np.zeros(length)
        burst = draw(st.integers(min_value=0, max_value=length - 1))
        cos2[burst] = draw(st.floats(min_value=4.0, max_value=64.0))
    else:
        cos2 = np.asarray(draw(series), float)
    return cos1, cos2


@st.composite
def decision_cases(draw):
    """(calendar, stack, capacities, commitment) around every gate edge."""
    calendar = draw(st.sampled_from(CALENDARS))
    length = calendar.n_observations
    base = [draw(hostile_rows(length)) for _ in range(draw(st.integers(1, 3)))]
    rows = draw(st.sampled_from([1, TILE, TILE + 1, 3 * TILE]))
    cos1 = np.stack([base[row % len(base)][0] for row in range(rows)])
    cos2 = np.stack([base[row % len(base)][1] for row in range(rows)])
    capacities = np.empty(rows)
    for row in range(rows):
        peak = float(cos1[row].max())
        # Exactly at some slot's CoS1 value, the peak's or a lower one.
        at_a_slot = float(cos1[row][draw(st.integers(0, length - 1))])
        capacity = draw(
            st.one_of(
                st.sampled_from([peak, peak + 1e-9, peak - 1e-9, at_a_slot]),
                capacity_values,
            )
        )
        capacities[row] = capacity if capacity > 0 else 0.125
    slot = calendar.slot_minutes
    commitment = CoSCommitment(
        theta=draw(st.sampled_from([0.5, 0.95, 1.0])),
        deadline_minutes=draw(
            st.sampled_from(
                [0.0, slot, 3.0 * slot, length * slot, 2.0 * length * slot]
            )
        ),
    )
    return calendar, cos1, cos2, capacities, commitment


class TestDecisionFunction:
    """`decide` is the oracle's `satisfies`, row by row, however tiled."""

    @settings(max_examples=150, deadline=None)
    @given(decision_cases())
    def test_matches_oracle_on_hostile_corners(self, case):
        calendar, cos1, cos2, capacities, commitment = case
        oracle = np.asarray(
            [
                SingleServerSimulator(c1, c2, calendar)
                .evaluate(capacity)
                .satisfies(commitment, calendar)
                for c1, c2, capacity in zip(cos1, cos2, capacities)
            ]
        )
        untiled = BatchSimulator(cos1, cos2, calendar)
        tile_bytes = TILE * 8 * calendar.n_observations
        with mock.patch.object(kernels, "_TILE_BYTES", tile_bytes):
            tiled = BatchSimulator(cos1, cos2, calendar)
        # A tile one slot shorter than a row sends every row down the
        # long-row path, in spans of all but the last week (1 week of 1,
        # 2 weeks then 1 of 3).
        long_bytes = 8 * (calendar.n_observations - 1)
        with mock.patch.object(kernels, "_TILE_BYTES", long_bytes):
            long = BatchSimulator(cos1, cos2, calendar)
        assert tiled._tile_rows == TILE
        assert untiled._tile_rows > 3 * TILE
        assert not untiled._span_weeks and not tiled._span_weeks
        assert long._span_weeks == max(1, calendar.weeks - 1)
        for batch in (untiled, tiled, long):
            verdicts, backlog_rows = batch.decide(
                None, capacities, commitment
            )
            np.testing.assert_array_equal(verdicts, oracle)
            assert 0 <= backlog_rows <= len(capacities)

    def test_row_subset_and_order_are_respected(self):
        """`rows` may repeat and reorder stack rows (the fused kernel's
        verification stacks both bracket edges of one row)."""
        cos1 = np.stack([np.full(N, 1.0), np.full(N, 3.0)])
        cos2 = np.stack([np.full(N, 1.0), np.zeros(N)])
        batch = BatchSimulator(cos1, cos2, CAL)
        commitment = CoSCommitment(theta=0.95, deadline_minutes=0.0)
        verdicts, backlog_rows = batch.decide(
            np.array([1, 0, 1, 0]),
            np.array([3.0, 2.0, 2.0, 1.5]),
            commitment,
        )
        assert verdicts.tolist() == [True, True, False, False]
        # Row 1 at 2.0 stops at the peak gate, row 0 at 1.5 at theta.
        assert backlog_rows == 2

    def test_rejects_bad_pairings(self):
        batch = BatchSimulator(np.ones((2, N)), np.ones((2, N)), CAL)
        commitment = CoSCommitment(theta=0.9)
        with pytest.raises(SimulationError, match="one capacity per row"):
            batch.decide(None, np.array([1.0]), commitment)
        with pytest.raises(SimulationError, match="capacity must be > 0"):
            batch.decide(None, np.array([1.0, 0.0]), commitment)


# --- aggregation: in-place row sums against the scalar oracle's ---

#: 1-hour, 30- and 5-minute slots over one week.
AGGREGATION_CALENDARS = tuple(
    TraceCalendar(weeks=1, slot_minutes=minutes) for minutes in (60, 30, 5)
)


@st.composite
def aggregation_cases(draw):
    """(calendar, matrix, sorted subsets) over magnitudes 1e-9 ... 1e6."""
    calendar = draw(st.sampled_from(AGGREGATION_CALENDARS))
    n = draw(st.integers(min_value=1, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = 10.0 ** rng.uniform(-9.0, 6.0, size=(n, calendar.n_observations))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        matrix[row] = 0.0
    subsets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            .map(sorted)
            .map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    return calendar, matrix, subsets


class TestFromSubsetsAggregation:
    """`from_subsets` adds rows in place; the oracle sums a gathered copy.

    Both must be the same float64 additions in the same order
    (``PlacementEvaluator._simulator_for`` / ``_evaluate_rows`` are the
    oracle's side), on every numpy the suite runs under: exact equality,
    no tolerance.
    """

    @settings(max_examples=60, deadline=None)
    @given(aggregation_cases())
    def test_rows_equal_the_gathered_sum(self, case):
        calendar, matrix, subsets = case
        other = matrix[::-1] * 0.5
        batch = BatchSimulator.from_subsets(matrix, other, subsets, calendar)
        for row, subset in enumerate(subsets):
            index = np.asarray(subset)
            assert np.array_equal(batch._cos1[row], matrix[index].sum(axis=0))
            assert np.array_equal(batch._cos2[row], other[index].sum(axis=0))

    def test_whole_matrix_and_singletons(self):
        calendar = AGGREGATION_CALENDARS[0]
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0.0, 4.0, size=(64, calendar.n_observations))
        subsets = [tuple(range(64)), (7,), (0, 63)]
        batch = BatchSimulator.from_subsets(matrix, matrix, subsets, calendar)
        for row, subset in enumerate(subsets):
            expected = matrix[np.asarray(subset)].sum(axis=0)
            assert np.array_equal(batch._cos1[row], expected)
        # A singleton is a copy, not a view of the caller's matrix.
        assert not np.shares_memory(batch._cos1, matrix)


class TestRequiredCapacityBatchBisect:
    """Default mode: bit-identical to the scalar search."""

    @settings(max_examples=50, deadline=None)
    @given(trace_stacks(), commitments)
    def test_matches_scalar_search(self, stack, commitment):
        cos1, cos2 = stack
        rows = cos1.shape[0]
        batch = BatchSimulator(cos1, cos2, CAL)
        outcome = required_capacity_batch(
            batch, np.full(rows, LIMIT), commitment, tolerance=TOLERANCE
        )
        assert outcome.stats.rows == rows
        for row in range(rows):
            scalar = required_capacity(
                [],
                LIMIT,
                commitment,
                tolerance=TOLERANCE,
                simulator=SingleServerSimulator(cos1[row], cos2[row], CAL),
            )
            batched = outcome.results[row]
            assert batched.fits == scalar.fits
            assert batched.required_capacity == scalar.required_capacity
            assert batched.report is None

    def test_peak_over_limit_short_circuits(self):
        cos1 = np.full((1, N), 2 * LIMIT)
        batch = BatchSimulator(cos1, np.zeros((1, N)), CAL)
        outcome = required_capacity_batch(
            batch, np.array([LIMIT]), CoSCommitment(theta=0.9)
        )
        assert not outcome.results[0].fits
        assert outcome.results[0].report is None
        assert outcome.stats.kernel_calls == 0

    def test_all_deferred_rows_do_not_fit(self):
        """Permanent overload with a zero deadline: no capacity below the
        peak-free limit drains the backlog, so every row reports no fit —
        on both the scalar and the batched path."""
        cos2 = np.full((2, N), 2 * LIMIT)
        batch = BatchSimulator(np.zeros((2, N)), cos2, CAL)
        commitment = CoSCommitment(theta=0.5, deadline_minutes=0.0)
        outcome = required_capacity_batch(
            batch, np.full(2, LIMIT), commitment
        )
        assert outcome.stats.backlog_rows == 2
        for row in range(2):
            result = outcome.results[row]
            assert not result.fits
            assert result.required_capacity == float("inf")
            assert result.report is None
            scalar = required_capacity(
                [], LIMIT, commitment, simulator=batch.simulator_for(row)
            )
            assert not scalar.fits
            assert scalar.report.max_deferred_slots > 0


class TestRequiredCapacityBatchAnalytic:
    """Analytic mode: same verdicts, capacity within the tolerance."""

    @settings(max_examples=50, deadline=None)
    @given(trace_stacks(), commitments)
    def test_within_tolerance_of_scalar(self, stack, commitment):
        cos1, cos2 = stack
        rows = cos1.shape[0]
        batch = BatchSimulator(cos1, cos2, CAL)
        outcome = required_capacity_batch(
            batch,
            np.full(rows, LIMIT),
            commitment,
            tolerance=TOLERANCE,
            mode="analytic",
        )
        for row in range(rows):
            simulator = SingleServerSimulator(cos1[row], cos2[row], CAL)
            scalar = required_capacity(
                [], LIMIT, commitment, tolerance=TOLERANCE,
                simulator=simulator,
            )
            analytic = outcome.results[row]
            assert analytic.fits == scalar.fits
            if not scalar.fits:
                continue
            # Both answers live within `tolerance` of the true minimum.
            assert (
                abs(analytic.required_capacity - scalar.required_capacity)
                <= TOLERANCE + 1e-9
            )
            # And the analytic answer is verified, not merely predicted.
            measured = simulator.evaluate(analytic.required_capacity)
            assert measured.satisfies(commitment, CAL)

    @settings(max_examples=25, deadline=None)
    @given(trace_stacks(), st.sampled_from([0.5, 0.95, 1.0 - 1e-9]))
    def test_theta_threshold_is_sufficient(self, stack, theta):
        """Evaluating just above the inverted threshold satisfies theta."""
        cos1, cos2 = stack
        batch = BatchSimulator(cos1, cos2, CAL)
        thresholds = batch.theta_thresholds(theta)
        assert thresholds.shape == (cos1.shape[0],)
        capacities = np.maximum(thresholds * (1.0 + 1e-12) + 1e-9, 1e-6)
        for row, capacity in enumerate(capacities):
            measured = batch.simulator_for(row).evaluate(capacity)
            assert measured.theta_measured >= theta - 1e-12

    def test_thresholds_are_cached_per_theta(self):
        batch = BatchSimulator(np.ones((1, N)), np.ones((1, N)), CAL)
        assert batch.theta_thresholds(0.9) is batch.theta_thresholds(0.9)

    def test_rejects_unknown_mode(self):
        batch = BatchSimulator(np.ones((1, N)), np.ones((1, N)), CAL)
        with pytest.raises(SimulationError, match="mode"):
            required_capacity_batch(
                batch, np.array([LIMIT]), CoSCommitment(theta=0.9),
                mode="newton",
            )


# --- rows longer than a tile: the long-row path against the dense one ---

#: Four weeks of 1-minute slots: 40 320 observations, so one row is
#: longer than a whole tile and ``decide`` takes the long-row path, with
#: theta spans of three weeks and then one.
LONG_CAL = TraceCalendar(weeks=4, slot_minutes=1)
LONG_T = LONG_CAL.n_observations
DAY = LONG_CAL.slots_per_day


def long_rows() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Named (cos1, cos2) rows, each built for one edge of the long path.

    Against 1 CPU of CoS2 per slot, a capacity of 2 drains one unit of
    backlog per slot, so a 10-CPU burst leaves 8 slots of backlog, and
    the burst itself (served first) waits 4 slots.
    """
    rng = np.random.default_rng(34)
    zeros, ones = np.zeros(LONG_T), np.ones(LONG_T)
    rows = {
        "all_zero": (zeros, zeros),
        "constant": (np.full(LONG_T, 0.5), ones),
        "cos1_only": (rng.uniform(0.0, 2.0, LONG_T), zeros),
        "random": (rng.uniform(0.0, 1.0, LONG_T), rng.uniform(0.0, 2.0, LONG_T)),
    }
    for name, burst in (
        ("backlog_from_slot_0", 0),
        # Backlogged from the third-last slot through the last one.
        ("backlog_to_last_slot", LONG_T - 3),
        # The last slot of day 0: the backlog runs into day 1, which has
        # no positive deficit, and a deadline of 1 to 3 slots is missed
        # there.
        ("backlog_over_midnight", DAY - 1),
    ):
        cos2 = ones.copy()
        cos2[burst] = 10.0
        rows[name] = (zeros, cos2)
    # One slot-of-day of the last week (the last theta span) is half
    # served at capacity 2 on all seven days; every other cell is fully
    # served, so theta 0.95 fails in that span only.
    cos1 = np.zeros(LONG_T)
    week = DAYS_PER_WEEK * DAY
    cos1[3 * week + 600 : 4 * week : DAY] = 1.5
    rows["theta_fails_in_last_span"] = (cos1, ones)
    return rows


LONG_COMMITMENTS = tuple(
    CoSCommitment(theta=theta, deadline_minutes=minutes)
    for theta in (0.5, 0.95, 1.0)
    # 0; 2 slots (the bursts are late); 5 slots (they are not); the
    # whole trace and beyond (no wait can be late).
    for minutes in (0.0, 2.0, 5.0, float(LONG_T), 2.0 * LONG_T)
)


def commitment_id(commitment: CoSCommitment) -> str:
    return f"{commitment.theta}-{commitment.deadline_minutes:g}"


def capacities_for(cos1: np.ndarray) -> list[float]:
    """A grid plus the peak ± 1e-9 and exactly one slot's CoS1 value."""
    peak = float(cos1.max())
    edges = [peak - 1e-9, peak, peak + 1e-9, float(cos1[LONG_T // 3])]
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 12.0]
    return [capacity for capacity in edges + grid if capacity > 0]


@pytest.fixture(scope="module")
def long_case():
    """The rows, one (row, capacity) pairing list, and both batches."""
    rows = long_rows()
    cos1 = np.stack([c1 for c1, _ in rows.values()])
    cos2 = np.stack([c2 for _, c2 in rows.values()])
    pairs = [
        (row, capacity)
        for row, (c1, _) in enumerate(rows.values())
        for capacity in capacities_for(c1)
    ]
    index = np.array([row for row, _ in pairs])
    capacities = np.array([capacity for _, capacity in pairs])
    long = BatchSimulator(cos1, cos2, LONG_CAL)
    with mock.patch.object(kernels, "_TILE_BYTES", 1 << 30):
        dense = BatchSimulator(cos1, cos2, LONG_CAL)
    return list(rows), index, capacities, long, dense


class TestLongRows:
    """`decide` on rows longer than a tile equals the dense path and the
    oracle bit for bit: verdicts, backlog counts, searches and stats."""

    def test_paths_are_the_intended_ones(self, long_case):
        _, _, _, long, dense = long_case
        assert long._span_weeks == 3
        assert not dense._span_weeks

    @pytest.mark.parametrize("commitment", LONG_COMMITMENTS, ids=commitment_id)
    def test_decide_matches_dense_and_oracle(self, long_case, commitment):
        _, index, capacities, long, dense = long_case
        reports = [
            long.simulator_for(row).evaluate(capacity)
            for row, capacity in zip(index.tolist(), capacities.tolist())
        ]
        oracle = np.array(
            [report.satisfies(commitment, LONG_CAL) for report in reports]
        )
        long_verdicts, long_reached = long.decide(index, capacities, commitment)
        dense_verdicts, dense_reached = dense.decide(
            index, capacities, commitment
        )
        np.testing.assert_array_equal(long_verdicts, oracle)
        np.testing.assert_array_equal(dense_verdicts, oracle)
        assert long_reached == dense_reached

    @pytest.mark.parametrize(
        "commitment",
        [LONG_COMMITMENTS[i] for i in (0, 1, 2, 6, 8, 13)],
        ids=commitment_id,
    )
    def test_search_matches_dense_and_scalar(self, long_case, commitment):
        names, _, _, long, dense = long_case
        limits = np.full(len(names), 16.0)
        from_long = required_capacity_batch(
            long, limits, commitment, tolerance=TOLERANCE
        )
        from_dense = required_capacity_batch(
            dense, limits, commitment, tolerance=TOLERANCE
        )
        assert from_long.stats == from_dense.stats
        assert from_long.results == from_dense.results
        for row, result in enumerate(from_long.results):
            scalar = required_capacity(
                [],
                16.0,
                commitment,
                tolerance=TOLERANCE,
                simulator=long.simulator_for(row),
            )
            assert result.fits == scalar.fits
            assert result.required_capacity == scalar.required_capacity

    def test_the_shapes_reach_their_edges(self, long_case):
        """The rows really exercise what they are named after."""
        names, _, _, long, _ = long_case
        row = names.index("backlog_over_midnight")
        oracle = long.simulator_for(row).evaluate(2.0)
        assert oracle.max_deferred_slots == 4
        cos1, cos2 = long._cos1[row], long._cos2[row]
        # Day 1, where the wait turns late, has no positive deficit.
        assert (cos2[DAY : 2 * DAY] - (2.0 - cos1[DAY : 2 * DAY]) <= 0).all()
        for minutes, verdict in ((2.0, False), (5.0, True)):
            commitment = CoSCommitment(theta=0.5, deadline_minutes=minutes)
            assert oracle.satisfies(commitment, LONG_CAL) is verdict
            ok, _ = long.decide(np.array([row]), np.array([2.0]), commitment)
            assert ok.tolist() == [verdict]

        row = names.index("theta_fails_in_last_span")
        measured = long.simulator_for(row).evaluate(2.0)
        assert measured.cos1_fits and measured.theta_measured == 0.5
        first_span = BatchSimulator(
            long._cos1[row : row + 1, : 3 * DAYS_PER_WEEK * DAY],
            long._cos2[row : row + 1, : 3 * DAYS_PER_WEEK * DAY],
            TraceCalendar(weeks=3, slot_minutes=1),
        )
        commitment = CoSCommitment(theta=0.95, deadline_minutes=LONG_T)
        assert first_span.decide(None, np.array([2.0]), commitment)[0].all()
        ok, _ = long.decide(np.array([row]), np.array([2.0]), commitment)
        assert ok.tolist() == [False]

        for name, first, last in (
            ("backlog_from_slot_0", 0, 7),
            ("backlog_to_last_slot", LONG_T - 3, LONG_T - 1),
        ):
            row = names.index(name)
            deficits = long._cos2[row] - 2.0
            backlog = np.cumsum(deficits) - np.minimum.accumulate(
                np.minimum(np.cumsum(deficits), 0.0)
            )
            assert np.flatnonzero(backlog > 0)[[0, -1]].tolist() == [first, last]


class TestLongRowSelection:
    """Rows take the long path iff one row is longer than a whole tile."""

    def spies(self):
        return (
            mock.patch.object(
                BatchSimulator,
                "_decide_long",
                autospec=True,
                side_effect=BatchSimulator._decide_long,
            ),
            mock.patch.object(
                BatchSimulator,
                "_decide_tile",
                autospec=True,
                side_effect=BatchSimulator._decide_tile,
            ),
        )

    @pytest.mark.parametrize("calendar", CALENDARS, ids=["1-week", "3-week"])
    def test_threshold_is_one_row_per_tile(self, calendar):
        rng = np.random.default_rng(3)
        length = calendar.n_observations
        cos1 = rng.uniform(0.0, 1.0, (4, length))
        cos2 = rng.uniform(0.0, 2.0, (4, length))
        capacities = np.array([0.5, 2.0, 2.5, 4.0])
        commitment = CoSCommitment(theta=0.5, deadline_minutes=0.0)
        live = int((cos1.max(axis=1) <= capacities + 1e-9).sum())
        assert live == 3
        for tile_bytes, takes_long in (
            (8 * length, False),
            (8 * length - 1, True),
        ):
            with mock.patch.object(kernels, "_TILE_BYTES", tile_bytes):
                batch = BatchSimulator(cos1, cos2, calendar)
            long_spy, tile_spy = self.spies()
            with long_spy as long_calls, tile_spy as tile_calls:
                batch.decide(None, capacities, commitment)
            assert long_calls.call_count == (live if takes_long else 0)
            assert (tile_calls.call_count > 0) is not takes_long

    def test_production_budget_sends_long_calendars_down_the_long_path(self):
        long_spy, tile_spy = self.spies()
        batch = BatchSimulator(
            np.zeros((1, LONG_T)), np.ones((1, LONG_T)), LONG_CAL
        )
        short = BatchSimulator(np.zeros((1, N)), np.ones((1, N)), CAL)
        assert 8 * LONG_T > kernels._TILE_BYTES >= 8 * N
        with long_spy as long_calls, tile_spy as tile_calls:
            batch.decide(None, np.array([2.0]), CoSCommitment(theta=0.5))
            assert (long_calls.call_count, tile_calls.call_count) == (1, 0)
            short.decide(None, np.array([2.0]), CoSCommitment(theta=0.5))
            assert (long_calls.call_count, tile_calls.call_count) == (1, 1)

    def test_kernel_counters_match_on_a_mixed_batch(self, long_case):
        """Rows failing the peak, theta and the deadline, and passing all:
        the same ``BatchSearchStats`` on both paths — the fields the
        evaluator records as the ``kernel.*`` counters."""
        names, index, capacities, long, dense = long_case
        commitment = CoSCommitment(theta=0.5, deadline_minutes=2.0)
        long_ok, long_reached = long.decide(index, capacities, commitment)
        dense_ok, dense_reached = dense.decide(index, capacities, commitment)
        np.testing.assert_array_equal(long_ok, dense_ok)
        assert long_reached == dense_reached
        # Every gate is exercised by some pairing of the batch.
        past_peak = int((long.peaks[index] <= capacities + 1e-9).sum())
        assert 0 < long_reached < past_peak
        assert 0 < int(long_ok.sum()) < long_reached
        limits = np.linspace(1.0, 16.0, len(names))
        stats = [
            required_capacity_batch(
                batch, limits, commitment, tolerance=TOLERANCE
            ).stats
            for batch in (long, dense)
        ]
        assert stats[0] == stats[1]
        assert stats[0].backlog_rows > 0
