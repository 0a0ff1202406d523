"""Tests for the M_degr percentile relaxation (formulas 2-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degradation import (
    max_cap_reduction_bound,
    new_max_demand,
    realized_cap_reduction,
)
from repro.core.qos import ApplicationQoS, DegradedSpec, QoSRange
from repro.exceptions import QoSSpecificationError
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=5)


def make_trace(cal, values):
    return DemandTrace("w", values, cal)


def qos(m=3.0, u_degr=0.9, u_low=0.5, u_high=0.66):
    degraded = DegradedSpec(m, u_degr) if m > 0 else None
    return ApplicationQoS(QoSRange(u_low, u_high), degraded)


class TestNewMaxDemand:
    def test_no_degraded_spec_returns_peak(self, cal):
        values = np.linspace(0, 10, cal.n_observations)
        trace = make_trace(cal, values)
        assert new_max_demand(trace, qos(m=0)) == trace.peak()

    def test_spiky_trace_uses_percentile(self, cal):
        """A_ok >= A_degr case: D_new_max = D_M% (formula 2)."""
        values = np.ones(cal.n_observations)
        values[:5] = 100.0  # 0.25% of points are huge
        trace = make_trace(cal, values)
        requirement = qos(m=3.0)
        cap = new_max_demand(trace, requirement)
        # D_97% = 1 and A_ok = 1/0.66 = 1.51 < A_degr = 100/0.9 -> the
        # degraded ceiling binds instead.
        assert cap == pytest.approx(100.0 * 0.66 / 0.9)

    def test_moderate_trace_percentile_binds(self, cal):
        """When the percentile allocation covers the degraded tail."""
        values = np.full(cal.n_observations, 9.0)
        values[: cal.n_observations // 2] = 10.0
        trace = make_trace(cal, values)
        # D_97% = 10 (more than 3% at 10), A_ok = 10/0.66 > A_degr = 10/0.9
        cap = new_max_demand(trace, qos(m=3.0))
        assert cap == pytest.approx(10.0)

    def test_formula3_when_degraded_ceiling_binds(self, cal):
        values = np.ones(cal.n_observations)
        values[-1] = 50.0
        trace = make_trace(cal, values)
        cap = new_max_demand(trace, qos(m=3.0, u_degr=0.9, u_high=0.66))
        assert cap == pytest.approx(50.0 * 0.66 / 0.9)

    def test_cap_never_exceeds_peak(self, cal):
        rng = np.random.default_rng(0)
        trace = make_trace(cal, rng.lognormal(0, 1, cal.n_observations))
        cap = new_max_demand(trace, qos(m=3.0))
        assert cap <= trace.peak() + 1e-12

    def test_degraded_budget_respected(self, cal):
        """At most M_degr% of observations sit strictly above the cap."""
        rng = np.random.default_rng(1)
        trace = make_trace(cal, rng.lognormal(0, 1.5, cal.n_observations))
        requirement = qos(m=3.0)
        cap = new_max_demand(trace, requirement)
        above = np.count_nonzero(trace.values > cap)
        assert above / len(trace) <= 0.03

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_budget_property(self, seed):
        calendar = TraceCalendar(weeks=1, slot_minutes=5)
        rng = np.random.default_rng(seed)
        trace = make_trace(calendar, rng.lognormal(0, 1.0, calendar.n_observations))
        cap = new_max_demand(trace, qos(m=3.0))
        above = np.count_nonzero(trace.values > cap)
        assert above / len(trace) <= 0.03 + 1e-12


class TestMaxCapReductionBound:
    def test_paper_value(self):
        """U_high=0.66, U_degr=0.9 -> 26.7% (Section V)."""
        assert max_cap_reduction_bound(0.66, 0.9) == pytest.approx(
            0.2667, abs=1e-4
        )

    def test_no_reduction_when_equal(self):
        assert max_cap_reduction_bound(0.9, 0.9) == 0.0

    def test_rejects_invalid(self):
        with pytest.raises(QoSSpecificationError):
            max_cap_reduction_bound(0.9, 0.66)
        with pytest.raises(QoSSpecificationError):
            max_cap_reduction_bound(0.66, 1.0)

    def test_realized_reduction_bounded(self, cal):
        """Formula 5: realized reduction never exceeds 1 - U_high/U_degr."""
        rng = np.random.default_rng(3)
        bound = max_cap_reduction_bound(0.66, 0.9)
        for _ in range(10):
            trace = make_trace(
                cal, rng.lognormal(0, rng.uniform(0.3, 2.0), cal.n_observations)
            )
            cap = new_max_demand(trace, qos(m=3.0))
            reduction = realized_cap_reduction(trace, cap)
            assert reduction <= bound + 1e-9


class TestRealizedCapReduction:
    def test_basic(self, cal):
        values = np.ones(cal.n_observations)
        values[0] = 10.0
        trace = make_trace(cal, values)
        assert realized_cap_reduction(trace, 8.0) == pytest.approx(0.2)

    def test_zero_trace(self, cal):
        trace = make_trace(cal, np.zeros(cal.n_observations))
        assert realized_cap_reduction(trace, 0.0) == 0.0

    def test_clamped_at_zero_when_cap_above_peak(self, cal):
        trace = make_trace(cal, np.ones(cal.n_observations))
        assert realized_cap_reduction(trace, 2.0) == 0.0

    def test_rejects_negative_cap(self, cal):
        trace = make_trace(cal, np.ones(cal.n_observations))
        with pytest.raises(QoSSpecificationError):
            realized_cap_reduction(trace, -1.0)
