"""Tests for allocation traces and per-CoS pairs."""

import pickle

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.traces.allocation import (
    AllocationTrace,
    CoSAllocationPair,
    allocation_matrices,
)
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



def rows_pairs(cal, count, writeable=False):
    """Pairs whose series are the rows of one matrix per class."""
    n = cal.n_observations
    cos1 = np.empty((count, n))
    cos1[:] = np.arange(count * n).reshape(count, n)
    cos2 = cos1 * 0.5
    cos1.flags.writeable = cos2.flags.writeable = writeable
    return [
        CoSAllocationPair(
            f"w{row}",
            AllocationTrace(f"w{row}.cos1", cos1[row], cal),
            AllocationTrace(f"w{row}.cos2", cos2[row], cal),
        )
        for row in range(count)
    ]


class TestAllocationMatrices:
    def test_rows_of_one_read_only_matrix_are_adopted(self, cal):
        pairs = rows_pairs(cal, 3)
        cos1, cos2 = allocation_matrices(pairs)
        assert cos1 is pairs[0].cos1.values.base
        assert cos2 is pairs[0].cos2.values.base

    @pytest.mark.parametrize(
        "pick",
        [
            lambda pairs: pairs[:2],
            lambda pairs: pairs[1:],
            lambda pairs: pairs[::-1],
            lambda pairs: [pairs[0], pairs[0], pairs[2]],
            lambda pairs: pickle.loads(pickle.dumps(pairs)),
        ],
        ids=["prefix", "suffix", "reordered", "repeated", "unpickled"],
    )
    def test_any_other_set_is_copied(self, cal, pick):
        pairs = rows_pairs(cal, 3)
        chosen = pick(pairs)
        cos1, cos2 = allocation_matrices(chosen)
        assert not np.shares_memory(cos1, pairs[0].cos1.values.base)
        assert not np.shares_memory(cos2, pairs[0].cos2.values.base)
        assert not cos1.flags.writeable and not cos2.flags.writeable
        for row, pair in enumerate(chosen):
            assert np.array_equal(cos1[row], pair.cos1.values)
            assert np.array_equal(cos2[row], pair.cos2.values)

    def test_a_writeable_matrix_is_copied(self, cal):
        pairs = rows_pairs(cal, 3, writeable=True)
        cos1, _ = allocation_matrices(pairs)
        assert not np.shares_memory(cos1, pairs[0].cos1.values.base)

    def test_separate_series_are_stacked(self, cal):
        pairs = [make_pair(cal, "a", 1.0, 2.0), make_pair(cal, "b", 3.0, 4.0)]
        cos1, cos2 = allocation_matrices(pairs)
        assert cos1[:, 0].tolist() == [1.0, 3.0]
        assert cos2[:, 0].tolist() == [2.0, 4.0]
