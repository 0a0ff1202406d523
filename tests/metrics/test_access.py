"""Tests for the theta measurement (Section IV formula)."""

import numpy as np
import pytest

from repro.exceptions import CapacityError
from repro.metrics.access import measure_theta, theta_by_slot
from repro.traces.allocation import AllocationTrace
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=2, slot_minutes=60)


class TestThetaBySlot:
    def test_shape(self, cal):
        allocation = AllocationTrace("a", np.ones(cal.n_observations), cal)
        ratios = theta_by_slot(allocation, 2.0)
        assert ratios.shape == (2, 24)

    def test_fully_satisfied(self, cal):
        allocation = AllocationTrace("a", np.ones(cal.n_observations), cal)
        assert (theta_by_slot(allocation, 2.0) == 1.0).all()

    def test_half_satisfied(self, cal):
        allocation = AllocationTrace(
            "a", np.full(cal.n_observations, 4.0), cal
        )
        assert theta_by_slot(allocation, 2.0) == pytest.approx(0.5)

    def test_zero_request_slot_counts_as_satisfied(self, cal):
        values = np.zeros(cal.n_observations)
        values[0] = 4.0  # only week 0, day 0, slot 0 has demand
        allocation = AllocationTrace("a", values, cal)
        ratios = theta_by_slot(allocation, 2.0)
        assert ratios[0, 0] == pytest.approx(0.5)
        assert ratios[1, 0] == 1.0  # no demand in week 1

    def test_aggregates_across_days(self, cal):
        """The ratio pools the seven days of a week per slot-of-day."""
        values = np.zeros(cal.n_observations)
        # Slot 0 of week 0: demand 4 on day 0 (cut to 2), demand 2 on day 1
        # (fully satisfied): ratio = (2 + 2) / (4 + 2) = 2/3.
        values[0] = 4.0
        values[24] = 2.0
        allocation = AllocationTrace("a", values, cal)
        ratios = theta_by_slot(allocation, 2.0)
        assert ratios[0, 0] == pytest.approx(4.0 / 6.0)

    def test_rejects_nonpositive_capacity(self, cal):
        allocation = AllocationTrace("a", np.ones(cal.n_observations), cal)
        with pytest.raises(CapacityError):
            theta_by_slot(allocation, 0.0)


class TestMeasureTheta:
    def test_min_over_slots(self, cal):
        values = np.ones(cal.n_observations)
        values[5] = 10.0  # one bad slot
        allocation = AllocationTrace("a", values, cal)
        theta = measure_theta(allocation, 2.0)
        # Week 0, slot 5: (2 + 6x1) / (10 + 6x1) = 0.5
        assert theta == pytest.approx(0.5)

    def test_monotone_in_capacity(self, cal):
        rng = np.random.default_rng(0)
        allocation = AllocationTrace(
            "a", rng.uniform(0, 5, cal.n_observations), cal
        )
        thetas = [measure_theta(allocation, c) for c in (1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b + 1e-12 for a, b in zip(thetas, thetas[1:]))

    def test_one_when_capacity_covers_peak(self, cal):
        allocation = AllocationTrace(
            "a", np.full(cal.n_observations, 3.0), cal
        )
        assert measure_theta(allocation, 3.0) == 1.0

