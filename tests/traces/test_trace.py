"""Tests for DemandTrace."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


class TestConstruction:
    def test_basic(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal)
        assert trace.name == "w"
        assert trace.attribute == "cpu"
        assert len(trace) == cal.n_observations

    def test_values_are_read_only(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal)
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_values_stay_read_only_across_pickle(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal, repairs=2)
        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace and restored.repairs == 2
        with pytest.raises(ValueError):
            restored.values[0] = 5.0

    def test_accepts_lists(self, cal):
        trace = DemandTrace("w", [1.0] * cal.n_observations, cal)
        assert trace.peak() == 1.0

    def test_rejects_wrong_length(self, cal):
        with pytest.raises(TraceError):
            DemandTrace("w", np.ones(10), cal)

    def test_rejects_2d(self, cal):
        with pytest.raises(TraceError):
            DemandTrace("w", np.ones((cal.n_observations, 1)), cal)

    def test_rejects_negative(self, cal):
        values = np.ones(cal.n_observations)
        values[3] = -0.5
        with pytest.raises(TraceError):
            DemandTrace("w", values, cal)

    def test_rejects_nan_and_inf(self, cal):
        for bad in (np.nan, np.inf):
            values = np.ones(cal.n_observations)
            values[0] = bad
            with pytest.raises(TraceError):
                DemandTrace("w", values, cal)

    def test_equality_and_hash(self, cal):
        a = DemandTrace("w", np.ones(cal.n_observations), cal)
        b = DemandTrace("w", np.ones(cal.n_observations), cal)
        c = DemandTrace("w2", np.ones(cal.n_observations), cal)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestStatistics:
    def test_peak_and_mean(self, cal):
        values = np.ones(cal.n_observations)
        values[5] = 9.0
        trace = DemandTrace("w", values, cal)
        assert trace.peak() == 9.0
        assert trace.mean() == pytest.approx(values.mean())

    def test_percentile_100_equals_peak(self, cal):
        rng = np.random.default_rng(0)
        trace = DemandTrace("w", rng.uniform(0, 5, cal.n_observations), cal)
        assert trace.percentile(100) == pytest.approx(trace.peak())

    def test_percentile_higher_method_guarantee(self, cal):
        rng = np.random.default_rng(1)
        trace = DemandTrace("w", rng.uniform(0, 5, cal.n_observations), cal)
        for m in (90.0, 95.0, 97.0, 99.0):
            cap = trace.percentile(m, method="higher")
            above = np.count_nonzero(trace.values > cap)
            assert above / len(trace) <= (100.0 - m) / 100.0

    def test_percentile_out_of_range(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal)
        with pytest.raises(TraceError):
            trace.percentile(101)
        with pytest.raises(TraceError):
            trace.percentile(-1)

    def test_is_constant(self, cal):
        assert DemandTrace("w", np.full(cal.n_observations, 2.0), cal).is_constant()
        values = np.full(cal.n_observations, 2.0)
        values[-1] = 3.0
        assert not DemandTrace("w", values, cal).is_constant()


class TestTransformations:
    def test_scaled(self, cal):
        trace = DemandTrace("w", np.full(cal.n_observations, 2.0), cal)
        assert trace.scaled(2.0).peak() == 4.0
        # Original unchanged.
        assert trace.peak() == 2.0

    def test_scaled_rejects_negative(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal)
        with pytest.raises(TraceError):
            trace.scaled(-1.0)

    def test_mapped(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal)
        doubled = trace.mapped(lambda v: v * 2)
        assert doubled.peak() == 2.0

    def test_renamed(self, cal):
        trace = DemandTrace("w", np.ones(cal.n_observations), cal)
        assert trace.renamed("x").name == "x"
        assert np.array_equal(trace.renamed("x").values, trace.values)

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_scaling_scales_peak_property(self, factor):
        cal = TraceCalendar(weeks=1, slot_minutes=360)
        rng = np.random.default_rng(7)
        trace = DemandTrace("w", rng.uniform(0, 3, cal.n_observations), cal)
        assert trace.scaled(factor).peak() == pytest.approx(
            trace.peak() * factor, rel=1e-9, abs=1e-12
        )
