"""Tests for the percentile-capping baseline."""

import numpy as np
import pytest

from repro.baselines.percentile_cap import degraded_run_profile
from repro.exceptions import QoSSpecificationError
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=5)


@pytest.fixture
def plateau_trace(cal):
    """A long sustained plateau above the 97th percentile."""
    values = np.ones(cal.n_observations)
    values[100:150] = 5.0  # 50 slots = 250 min sustained burst, ~2.5%
    return DemandTrace("plateau", values, cal)


class TestDegradedRunProfile:
    def test_exposes_sustained_outage(self, plateau_trace):
        """The baseline's weakness: a 3% budget spent in one long run."""
        profile = degraded_run_profile(plateau_trace, 97.0)
        assert profile.degraded_fraction <= 0.03
        assert profile.longest_run_minutes == 50 * 5
        assert profile.n_runs == 1

    def test_smooth_trace_no_runs(self, cal):
        trace = DemandTrace("c", np.ones(cal.n_observations), cal)
        profile = degraded_run_profile(trace, 97.0)
        assert profile.n_runs == 0
        assert profile.longest_run_minutes == 0
        assert profile.mean_run_minutes == 0

    def test_rejects_bad_percentile(self, plateau_trace):
        with pytest.raises(QoSSpecificationError):
            degraded_run_profile(plateau_trace, 0.0)
