"""Tests for trace analysis primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar
from repro.traces.ops import (
    Run,
    contiguous_runs_above,
    longest_run_above,
    percentile_profile,
)
from repro.traces.trace import DemandTrace


class TestContiguousRuns:
    def test_no_runs(self):
        assert contiguous_runs_above(np.zeros(10), 0.5) == []

    def test_single_run(self):
        runs = contiguous_runs_above(np.array([0, 2, 2, 2, 0.0]), 1)
        assert runs == [Run(1, 4)]
        assert runs[0].length == 3

    def test_run_at_boundaries(self):
        runs = contiguous_runs_above(np.array([2, 0, 2.0]), 1)
        assert runs == [Run(0, 1), Run(2, 3)]

    def test_entire_array_one_run(self):
        runs = contiguous_runs_above(np.ones(5) * 2, 1)
        assert runs == [Run(0, 5)]

    def test_threshold_is_strict(self):
        # Values exactly equal to the threshold do not count as above.
        runs = contiguous_runs_above(np.array([1.0, 1.0, 1.1]), 1.0)
        assert runs == [Run(2, 3)]

    def test_empty_array(self):
        assert contiguous_runs_above(np.empty(0), 1.0) == []

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            contiguous_runs_above(np.ones((2, 2)), 0.5)

    def test_run_indices(self):
        run = Run(3, 6)
        assert run.indices().tolist() == [3, 4, 5]

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=60)
    )
    def test_runs_partition_above_mask(self, bits):
        values = np.array(bits, dtype=float)
        runs = contiguous_runs_above(values, 0.5)
        covered = np.zeros(len(bits), dtype=bool)
        for run in runs:
            assert run.length > 0
            assert (values[run.start : run.stop] > 0.5).all()
            covered[run.start : run.stop] = True
        # Every above-threshold index is inside exactly one run, and runs
        # are maximal (neighbours of a run are below the threshold).
        assert np.array_equal(covered, values > 0.5)
        for run in runs:
            if run.start > 0:
                assert values[run.start - 1] <= 0.5
            if run.stop < len(bits):
                assert values[run.stop] <= 0.5


class TestLongestRun:
    def test_zero_when_never_above(self):
        assert longest_run_above(np.zeros(5), 1) == 0

    def test_finds_longest(self):
        values = np.array([2, 0, 2, 2, 0, 2, 2, 2.0])
        assert longest_run_above(values, 1) == 3


class TestPercentileProfile:
    def test_normalised_to_peak(self):
        cal = TraceCalendar(weeks=1, slot_minutes=60)
        values = np.linspace(0, 10, cal.n_observations)
        trace = DemandTrace("w", values, cal)
        profile = percentile_profile(trace, [50, 100])
        assert profile[100.0] == pytest.approx(100.0)
        assert profile[50.0] == pytest.approx(50.0, abs=1.0)

    def test_zero_trace(self):
        cal = TraceCalendar(weeks=1, slot_minutes=60)
        trace = DemandTrace("w", np.zeros(cal.n_observations), cal)
        assert percentile_profile(trace, [97])[97.0] == 0.0

