"""Tests for the single-server replay simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.simulator import AccessReport, SingleServerSimulator
from repro.resources.scheduler import CapacityScheduler
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar
from tests.placement.test_kernels import CALENDARS, capacity_values, hostile_rows


@pytest.fixture
def cal():
    return TraceCalendar(weeks=2, slot_minutes=60)


def make_pair(cal, name, cos1, cos2):
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", cos1, cal),
        AllocationTrace(f"{name}.cos2", cos2, cal),
    )


def constant_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return make_pair(cal, name, np.full(n, cos1_level), np.full(n, cos2_level))


class TestEvaluate:
    def test_ample_capacity_full_satisfaction(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 2.0)]
        )
        report = simulator.evaluate(10.0)
        assert report.cos1_fits
        assert report.theta_measured == 1.0
        assert report.max_deferred_slots == 0
        assert report.deadline_ok(
            CoSCommitment(theta=0.9, deadline_minutes=60), cal
        )

    def test_cos1_does_not_fit(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 5.0, 0.0)]
        )
        report = simulator.evaluate(4.0)
        assert not report.cos1_fits
        assert report.cos1_peak == 5.0

    def test_theta_ratio_constant_overload(self, cal):
        # CoS2 requests 4 every slot, capacity 2 after no CoS1 -> 50%.
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.0, 4.0)]
        )
        report = simulator.evaluate(2.0)
        assert report.theta_measured == pytest.approx(0.5)
        # Permanently oversubscribed: deferred demand never drains in time.
        assert not report.deadline_ok(
            CoSCommitment(theta=0.5, deadline_minutes=60), cal
        )

    def test_cos1_reduces_cos2_capacity(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 2.0)]
        )
        report = simulator.evaluate(2.0)
        # CoS2 sees 1 unit of the 2 requested -> theta 0.5.
        assert report.theta_measured == pytest.approx(0.5)

    def test_theta_is_min_over_week_slots(self, cal):
        # Demand only in week 0, slot 0 of each day; satisfied elsewhere.
        n = cal.n_observations
        cos2 = np.zeros(n)
        for day in range(7):
            cos2[day * 24] = 4.0  # week 0 only
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        # That one (week, slot) pair has ratio 0.5; everything else is 1.
        assert report.theta_measured == pytest.approx(0.5)

    def test_zero_cos2_theta_is_one(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 0.0)]
        )
        assert simulator.evaluate(2.0).theta_measured == 1.0

    def test_monotone_in_capacity(self, cal):
        rng = np.random.default_rng(0)
        n = cal.n_observations
        pair = make_pair(cal, "a", rng.uniform(0, 1, n), rng.uniform(0, 3, n))
        simulator = SingleServerSimulator.from_pairs([pair])
        capacities = [1.0, 2.0, 3.0, 4.0, 6.0]
        thetas = [simulator.evaluate(c).theta_measured for c in capacities]
        deferrals = [simulator.evaluate(c).max_deferred_slots for c in capacities]
        assert all(a <= b + 1e-12 for a, b in zip(thetas, thetas[1:]))
        assert all(a >= b for a, b in zip(deferrals, deferrals[1:]))

    def test_rejects_nonpositive_capacity(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 1.0)]
        )
        with pytest.raises(SimulationError):
            simulator.evaluate(0.0)

    def test_rejects_empty_pairs(self):
        with pytest.raises(SimulationError):
            SingleServerSimulator.from_pairs([])


class TestDeferredSlots:
    def test_burst_deferral_measured(self, cal):
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[10] = 6.0  # needs 3 slots at capacity 2
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        assert report.max_deferred_slots == 2
        # 2 deferred slots violate a 1-slot (60 min) deadline but honour
        # a 2-slot (120 min) one.
        assert not report.deadline_ok(
            CoSCommitment(theta=0.1, deadline_minutes=60), cal
        )
        assert report.deadline_ok(
            CoSCommitment(theta=0.1, deadline_minutes=120), cal
        )

    def test_deferral_within_deadline_satisfies(self, cal):
        """Regression: deferral inside the commitment deadline is allowed.

        The old ``deadline_ok`` field was True only for zero deferral,
        contradicting ``satisfies()``; a trace that defers but drains
        within ``s`` must pass both checks.
        """
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[10] = 6.0  # needs 3 slots at capacity 2 -> 2 deferred slots
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        commitment = CoSCommitment(theta=0.1, deadline_minutes=180)
        assert report.max_deferred_slots == 2
        assert report.deadline_ok(commitment, cal)
        assert report.satisfies(commitment, cal)

    def test_never_served_counts_to_trace_end(self, cal):
        n = cal.n_observations
        cos2 = np.full(n, 4.0)  # permanently oversubscribed at capacity 2
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        assert report.max_deferred_slots > n // 4

    def test_agreement_with_scheduler_backlog(self, cal):
        """The vectorised deferral matches the step-wise scheduler."""
        rng = np.random.default_rng(5)
        n = cal.n_observations
        pairs = [
            make_pair(cal, "a", np.zeros(n), rng.uniform(0, 3, n)),
        ]
        capacity = 2.0
        simulator_report = SingleServerSimulator.from_pairs(pairs).evaluate(
            capacity
        )
        scheduler_result = CapacityScheduler(capacity).run(pairs)
        assert (
            simulator_report.max_deferred_slots
            == scheduler_result.worst_backlog_age()
        )


class TestSatisfies:
    def test_satisfies_commitment(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.5, 1.0)]
        )
        commitment = CoSCommitment(theta=0.9, deadline_minutes=60)
        assert simulator.evaluate(3.0).satisfies(commitment, cal)

    def test_fails_on_low_theta(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.0, 4.0)]
        )
        commitment = CoSCommitment(theta=0.9, deadline_minutes=10_000)
        assert not simulator.evaluate(2.0).satisfies(commitment, cal)

    def test_fails_on_deadline(self, cal):
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[0] = 20.0  # large burst, theta per-slot min still high overall?
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        commitment = CoSCommitment(theta=0.01, deadline_minutes=60)
        report = simulator.evaluate(2.0)
        # Needs 10 slots to drain at capacity 2; deadline is 1 slot.
        assert not report.satisfies(commitment, cal)

    def test_fails_on_cos1_overbooking(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 5.0, 0.0)]
        )
        commitment = CoSCommitment(theta=0.5, deadline_minutes=10_000)
        assert not simulator.evaluate(4.0).satisfies(commitment, cal)


# --- the in-place replay against the whole-array one ---------------------


def frozen_evaluate(cos1, cos2, calendar, capacity):
    """``SingleServerSimulator.evaluate`` as it was before it wrote into
    two buffers: a fresh array for every step. The oracle the in-place
    replay must equal in every :class:`AccessReport` field, bit for bit."""
    epsilon = 1e-9
    cos1_peak = float(cos1.max()) if cos1.size else 0.0
    arrivals_cum = np.concatenate(([0.0], np.cumsum(cos2)))
    requested = calendar.slot_of_day_view(cos2).sum(axis=1)
    granted_cos1 = np.minimum(cos1, capacity)
    available_cos2 = np.maximum(0.0, capacity - granted_cos1)
    satisfied_now = np.minimum(cos2, available_cos2)
    satisfied = calendar.slot_of_day_view(satisfied_now).sum(axis=1)
    ratios = np.ones_like(requested)
    positive = requested > 0
    ratios[positive] = satisfied[positive] / requested[positive]
    prefix = np.cumsum(cos2 - available_cos2)
    backlog = prefix - np.minimum.accumulate(np.minimum(prefix, 0.0))
    deferred = 0
    if float(backlog.max(initial=0.0)) > epsilon:
        served_cum = arrivals_cum[1:] - backlog
        first_served = np.searchsorted(
            served_cum, arrivals_cum[1:] - epsilon, side="left"
        )
        waits = first_served - np.arange(cos2.shape[0])
        deferred = int(max(0, waits.max()))
    return AccessReport(
        capacity=float(capacity),
        cos1_fits=cos1_peak <= capacity + epsilon,
        cos1_peak=cos1_peak,
        theta_measured=float(ratios.min()) if ratios.size else 1.0,
        max_deferred_slots=deferred,
        cos2_demand_total=float(cos2.sum()),
        cos2_satisfied_on_request=float(satisfied_now.sum()),
    )


def _deadlines(calendar):
    """Deadline 0, one slot, and at and beyond the whole trace."""
    slot, length = calendar.slot_minutes, calendar.n_observations
    return (0.0, slot, length * slot, 2.0 * length * slot)


@st.composite
def oracle_cases(draw):
    """A hostile row and capacities around its every edge."""
    calendar = draw(st.sampled_from(CALENDARS))
    length = calendar.n_observations
    cos1, cos2 = draw(hostile_rows(length))
    peak = float(cos1.max())
    at_a_slot = float(cos1[draw(st.integers(0, length - 1))])
    capacities = draw(
        st.lists(
            st.one_of(
                st.sampled_from([peak, peak + 1e-9, peak - 1e-9, at_a_slot]),
                capacity_values,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return calendar, cos1, cos2, [c if c > 0 else 0.125 for c in capacities]


class TestInPlaceEvaluateIsTheOldOne:
    def _assert_same(self, simulator, cos1, cos2, calendar, capacities):
        # One simulator answers every capacity in turn, as a search asks
        # it: no buffer of one call may leak into the next.
        for capacity in capacities:
            report = simulator.evaluate(capacity)
            oracle = frozen_evaluate(cos1, cos2, calendar, capacity)
            assert repr(report) == repr(oracle)
            for theta in (0.5, 0.95, 1.0):
                for deadline in _deadlines(calendar):
                    commitment = CoSCommitment(
                        theta=theta, deadline_minutes=deadline
                    )
                    assert report.satisfies(
                        commitment, calendar
                    ) == oracle.satisfies(commitment, calendar)

    @settings(max_examples=200, deadline=None)
    @given(oracle_cases())
    def test_every_report_field_on_hostile_corners(self, case):
        calendar, cos1, cos2, capacities = case
        simulator = SingleServerSimulator(cos1, cos2, calendar)
        self._assert_same(simulator, cos1, cos2, calendar, capacities)

    def test_long_row_with_deferral_to_the_end(self):
        """Four weeks of 5-minute slots: deferral that is served, and a
        burst in the last slot that never is."""
        calendar = TraceCalendar(weeks=4, slot_minutes=5)
        rng = np.random.default_rng(36)
        cos1 = rng.gamma(2.0, 0.2, calendar.n_observations)
        cos2 = rng.gamma(2.0, 0.5, calendar.n_observations)
        cos2[-1] = 50.0
        peak = float(cos1.max())
        simulator = SingleServerSimulator(cos1, cos2, calendar)
        capacities = [peak - 1e-9, peak, peak + 1e-9, 1.0, 1.6, 3.0, 60.0]
        self._assert_same(simulator, cos1, cos2, calendar, capacities)
        assert simulator.evaluate(1.6).max_deferred_slots > 1
        assert simulator.evaluate(60.0).max_deferred_slots == 0
