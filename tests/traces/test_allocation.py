"""Tests for allocation traces and per-CoS pairs."""

import pickle

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def make_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", np.full(n, cos1_level), cal),
        AllocationTrace(f"{name}.cos2", np.full(n, cos2_level), cal),
    )


class TestAllocationTrace:
    def test_construction_and_peak(self, cal):
        trace = AllocationTrace("a", np.full(cal.n_observations, 2.0), cal)
        assert trace.peak() == 2.0
        assert trace.mean() == 2.0

    def test_rejects_negative(self, cal):
        values = np.zeros(cal.n_observations)
        values[0] = -1
        with pytest.raises(TraceError):
            AllocationTrace("a", values, cal)

    def test_rejects_wrong_length(self, cal):
        with pytest.raises(TraceError):
            AllocationTrace("a", np.ones(3), cal)

    def test_addition(self, cal):
        a = AllocationTrace("a", np.full(cal.n_observations, 1.0), cal)
        b = AllocationTrace("b", np.full(cal.n_observations, 2.0), cal)
        assert (a + b).peak() == 3.0

    def test_addition_rejects_attribute_mismatch(self, cal):
        a = AllocationTrace("a", np.ones(cal.n_observations), cal, "cpu")
        b = AllocationTrace("b", np.ones(cal.n_observations), cal, "mem")
        with pytest.raises(TraceError):
            a + b

    def test_values_read_only(self, cal):
        trace = AllocationTrace("a", np.ones(cal.n_observations), cal)
        with pytest.raises(ValueError):
            trace.values[0] = 9

    def test_values_stay_read_only_across_pickle(self, cal):
        # A spawned pool worker receives the shard planner's pairs by pickle.
        pair = pickle.loads(pickle.dumps(make_pair(cal, "w", 1.0, 2.0)))
        for trace in (pair.cos1, pair.cos2):
            assert not trace.values.flags.writeable
            with pytest.raises(ValueError):
                trace.values[0] = 9
        assert pair.cos1.name == "w.cos1" and pair.cos2.peak() == 2.0


class TestCoSAllocationPair:
    def test_total_and_peaks(self, cal):
        pair = make_pair(cal, "w", 1.0, 2.0)
        assert pair.total().peak() == 3.0
        assert pair.peak_allocation() == 3.0
        assert pair.peak_cos1() == 1.0

    def test_cos2_fraction(self, cal):
        pair = make_pair(cal, "w", 1.0, 3.0)
        assert pair.cos2_fraction() == pytest.approx(0.75)

    def test_cos2_fraction_zero_pair(self, cal):
        pair = make_pair(cal, "w", 0.0, 0.0)
        assert pair.cos2_fraction() == 0.0

    def test_attribute_mismatch_rejected(self, cal):
        cos1 = AllocationTrace("c1", np.ones(cal.n_observations), cal, "cpu")
        cos2 = AllocationTrace("c2", np.ones(cal.n_observations), cal, "mem")
        with pytest.raises(TraceError):
            CoSAllocationPair("w", cos1, cos2)

