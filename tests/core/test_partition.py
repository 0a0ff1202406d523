"""Tests for the breakpoint formula and demand partitioning (formula 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.partition import (
    breakpoint_fraction,
    partition_demand,
    worst_case_granted_allocation,
)
from repro.exceptions import PartitionError


class TestBreakpointFraction:
    def test_paper_figure3_parameters(self):
        """(U_low, U_high) = (0.5, 0.66): p falls to 0 at theta ~ 0.7576."""
        ratio = 0.5 / 0.66
        assert breakpoint_fraction(0.5, 0.66, 0.6) == pytest.approx(
            (ratio - 0.6) / 0.4
        )
        assert breakpoint_fraction(0.5, 0.66, ratio) == 0.0
        assert breakpoint_fraction(0.5, 0.66, 0.95) == 0.0

    def test_monotone_decreasing_in_theta(self):
        thetas = np.linspace(0.4, 0.99, 30)
        values = [breakpoint_fraction(0.5, 0.66, theta) for theta in thetas]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_equal_bounds_gives_one_at_low_theta(self):
        # U_low == U_high: ratio is 1, so p = (1 - theta)/(1 - theta) = 1.
        assert breakpoint_fraction(0.6, 0.6, 0.5) == 1.0

    def test_theta_one_gives_zero(self):
        assert breakpoint_fraction(0.5, 0.66, 1.0) == 0.0

    def test_theta_within_atol_of_one_short_circuits(self):
        # Any theta within METRIC_ATOL of 1 must take the isclose
        # branch and never reach the singular 1 - theta divisor —
        # even when U_low == U_high makes ratio == 1 > theta.
        for theta in (1.0 - 1e-12, 1.0 - 1e-10):
            assert breakpoint_fraction(0.5, 0.66, theta) == 0.0
            assert breakpoint_fraction(0.6, 0.6, theta) == 0.0

    def test_theta_just_below_the_atol_window_still_divides(self):
        # Outside the METRIC_ATOL window the formula applies normally;
        # with ratio == 1 it yields exactly p = 1 for any theta < 1.
        assert breakpoint_fraction(0.6, 0.6, 1.0 - 1e-6) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(PartitionError):
            breakpoint_fraction(0.7, 0.66, 0.6)
        with pytest.raises(PartitionError):
            breakpoint_fraction(0.5, 0.66, 0.0)
        with pytest.raises(PartitionError):
            # Out-of-domain on purpose: rejection is what's asserted.
            breakpoint_fraction(0.5, 0.66, 1.5)
        with pytest.raises(ValueError):
            breakpoint_fraction(0.0, 0.66, 0.5)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.94),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_always_in_unit_interval(self, u_low, gap, theta):
        u_high = min(1.0, u_low + gap * (1.0 - u_low))
        p = breakpoint_fraction(u_low, u_high, theta)
        assert 0.0 <= p <= 1.0

    @given(
        st.floats(min_value=0.1, max_value=0.6),
        st.floats(min_value=0.01, max_value=0.35),
        st.floats(min_value=0.05, max_value=0.99),
    )
    def test_allocation_identity(self, u_low, gap, theta):
        """The defining equation: A_ok = A_ideal*(p + (1-p)*theta).

        Holds whenever p is interior (not clamped at 0).
        """
        u_high = u_low + gap
        p = breakpoint_fraction(u_low, u_high, theta)
        if p > 0:
            d_max = 10.0
            a_ideal = d_max / u_low
            a_ok = d_max / u_high
            granted = a_ideal * (p + (1 - p) * theta)
            assert granted == pytest.approx(a_ok, rel=1e-9)


class TestPartitionDemand:
    def test_docstring_example(self):
        cos1, cos2 = partition_demand(np.array([1.0, 4.0, 10.0]), 8.0, 3.0)
        assert cos1.tolist() == [1.0, 3.0, 3.0]
        assert cos2.tolist() == [0.0, 1.0, 5.0]

    def test_conservation_up_to_cap(self):
        values = np.array([0.0, 2.0, 5.0, 9.0, 20.0])
        cos1, cos2 = partition_demand(values, 10.0, 4.0)
        np.testing.assert_allclose(cos1 + cos2, np.minimum(values, 10.0))

    def test_all_in_cos1_when_breakpoint_is_cap(self):
        values = np.array([1.0, 5.0, 12.0])
        cos1, cos2 = partition_demand(values, 10.0, 10.0)
        np.testing.assert_allclose(cos2, 0.0)
        np.testing.assert_allclose(cos1, np.minimum(values, 10.0))

    def test_all_in_cos2_when_breakpoint_zero(self):
        values = np.array([1.0, 5.0, 12.0])
        cos1, cos2 = partition_demand(values, 10.0, 0.0)
        np.testing.assert_allclose(cos1, 0.0)
        np.testing.assert_allclose(cos2, np.minimum(values, 10.0))

    def test_zero_cap(self):
        cos1, cos2 = partition_demand(np.array([1.0, 2.0]), 0.0, 0.0)
        assert cos1.tolist() == [0.0, 0.0]
        assert cos2.tolist() == [0.0, 0.0]

    def test_rejects_breakpoint_above_cap(self):
        with pytest.raises(PartitionError):
            partition_demand(np.ones(3), 5.0, 6.0)

    def test_rejects_negative_cap(self):
        with pytest.raises(PartitionError):
            # Out-of-domain on purpose: rejection is what's asserted.
            partition_demand(np.ones(3), -1.0, 0.0)

    def test_rejects_2d(self):
        with pytest.raises(PartitionError):
            partition_demand(np.ones((2, 2)), 1.0, 0.5)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=100), min_size=1, max_size=50
        ),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_properties(self, demand, cap, break_fraction):
        values = np.array(demand)
        breakpoint = cap * break_fraction
        cos1, cos2 = partition_demand(values, cap, breakpoint)
        assert (cos1 >= 0).all() and (cos2 >= 0).all()
        assert (cos1 <= breakpoint + 1e-9).all()
        np.testing.assert_allclose(
            cos1 + cos2, np.minimum(values, cap), atol=1e-9
        )


class TestWorstCaseGrantedAllocation:
    def test_formula(self):
        cos1 = np.array([2.0])
        cos2 = np.array([4.0])
        granted = worst_case_granted_allocation(cos1, cos2, theta=0.5, u_low=0.5)
        # (2 + 4*0.5) / 0.5 = 8
        assert granted[0] == pytest.approx(8.0)

    def test_theta_one_full_grant(self):
        cos1 = np.array([1.0])
        cos2 = np.array([1.0])
        granted = worst_case_granted_allocation(cos1, cos2, 1.0, 0.5)
        assert granted[0] == pytest.approx(4.0)
