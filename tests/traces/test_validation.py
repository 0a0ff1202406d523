"""Tests for trace quality validation."""

import numpy as np
import pytest

from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.traces.validation import (
    IssueKind,
    TraceIssue,
    _stuck_value_issues,
    validate_ensemble,
    validate_trace,
)


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=5)


def trace(cal, values, name="w"):
    return DemandTrace(name, values, cal)


def _stuck_value_oracle(values, stuck_run_slots):
    """The slot-by-slot walk ``_stuck_value_issues`` must agree with."""
    issues = []
    n = values.shape[0]
    run_start = 0
    for index in range(1, n + 1):
        at_end = index == n
        if at_end or values[index] != values[run_start]:
            length = index - run_start
            if length > stuck_run_slots and values[run_start] > 0:
                issues.append(
                    TraceIssue(
                        IssueKind.STUCK_VALUE,
                        f"value {values[run_start]:g} repeated "
                        f"{length} times",
                        start=run_start,
                        stop=index,
                    )
                )
            run_start = index
    return issues


class TestStuckRunsMatchTheSlotWalk:
    """Run boundaries found at once give the walk's issues, in its order."""

    @staticmethod
    def check(values, stuck_run_slots):
        values = np.asarray(values, dtype=float)
        expected = _stuck_value_oracle(values, stuck_run_slots)
        assert _stuck_value_issues(values, stuck_run_slots) == expected
        return expected

    @pytest.mark.parametrize("values", [[], [np.nan], [np.nan] * 5])
    def test_empty_and_all_nan_series_have_no_runs(self, values):
        assert self.check(values, 0) == []

    def test_a_single_slot_is_a_run_of_one(self):
        assert self.check([2.0], 0) == [
            TraceIssue(IssueKind.STUCK_VALUE, "value 2 repeated 1 times", 0, 1)
        ]

    def test_run_of_exactly_the_threshold_is_not_flagged(self):
        assert self.check([1.0] + [3.5] * 4 + [1.0], 4) == []

    def test_run_one_past_the_threshold_is_flagged(self):
        assert self.check([1.0] + [3.5] * 5 + [1.0], 4) == [
            TraceIssue(IssueKind.STUCK_VALUE, "value 3.5 repeated 5 times", 1, 6)
        ]

    def test_zero_and_negative_runs_are_never_flagged(self):
        assert self.check([0.0] * 9 + [-2.0] * 9 + [-0.0] * 9, 2) == []

    def test_runs_touching_either_end(self):
        issues = self.check([7.0] * 5 + [1.0, 2.0] + [0.25] * 6, 3)
        assert [(issue.start, issue.stop) for issue in issues] == [(0, 5), (7, 13)]

    @pytest.mark.parametrize("stuck_run_slots", [0, 1, 2, 48])
    def test_random_small_alphabet_series(self, stuck_run_slots):
        rng = np.random.default_rng(stuck_run_slots)
        alphabet = np.array([np.nan, -1.0, 0.0, 0.5, 2.0])
        flagged = 0
        for _ in range(200):
            length = int(rng.integers(0, 120))
            # Repeat each draw a few times so long runs are common.
            draws = alphabet[rng.integers(0, alphabet.size, size=length)]
            values = np.repeat(draws, rng.integers(1, 30, size=length))
            flagged += len(self.check(values, stuck_run_slots))
        assert flagged > 0


class TestCleanTraces:
    def test_realistic_trace_is_clean(self, cal):
        rng = np.random.default_rng(0)
        values = rng.lognormal(0, 0.4, cal.n_observations) + 0.1
        report = validate_trace(trace(cal, values))
        assert report.clean
        assert report.workload == "w"
        assert report.n_observations == cal.n_observations

    def test_generated_ensemble_is_clean(self):
        from repro.workloads.ensemble import case_study_ensemble

        reports = validate_ensemble(case_study_ensemble(seed=2006, weeks=1))
        dirty = [name for name, report in reports.items() if not report.clean]
        assert dirty == []


class TestPathologies:
    def test_all_zero(self, cal):
        report = validate_trace(trace(cal, np.zeros(cal.n_observations)))
        assert report.has(IssueKind.ALL_ZERO)
        assert not report.clean

    def test_mostly_zero(self, cal):
        values = np.zeros(cal.n_observations)
        # Scattered nonzero values so no long zero-run dominates checks.
        values[::3] = 1.0 + 0.01 * np.arange(len(values[::3]))
        report = validate_trace(trace(cal, values))
        assert report.has(IssueKind.MOSTLY_ZERO)

    def test_constant(self, cal):
        report = validate_trace(
            trace(cal, np.full(cal.n_observations, 2.5))
        )
        assert report.has(IssueKind.CONSTANT)

    def test_stuck_value(self, cal):
        rng = np.random.default_rng(1)
        values = rng.lognormal(0, 0.3, cal.n_observations) + 0.1
        values[100:200] = 3.14  # 100 slots stuck
        report = validate_trace(trace(cal, values))
        assert report.has(IssueKind.STUCK_VALUE)
        issue = next(
            issue for issue in report.issues
            if issue.kind is IssueKind.STUCK_VALUE
        )
        assert issue.start == 100
        assert issue.stop == 200

    def test_short_repeats_not_flagged(self, cal):
        rng = np.random.default_rng(2)
        values = rng.lognormal(0, 0.3, cal.n_observations) + 0.1
        values[10:20] = 2.0  # only 10 slots
        report = validate_trace(trace(cal, values))
        assert not report.has(IssueKind.STUCK_VALUE)

    def test_extreme_outlier(self, cal):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.5, 1.5, cal.n_observations)
        values[500] = 100.0
        report = validate_trace(trace(cal, values))
        assert report.has(IssueKind.EXTREME_OUTLIER)
        issue = next(
            issue for issue in report.issues
            if issue.kind is IssueKind.EXTREME_OUTLIER
        )
        assert issue.start == 500

    def test_legitimate_burstiness_not_outlier(self, cal):
        rng = np.random.default_rng(4)
        values = rng.lognormal(0, 1.0, cal.n_observations)
        report = validate_trace(trace(cal, values))
        assert not report.has(IssueKind.EXTREME_OUTLIER)

    def test_dead_collector(self, cal):
        rng = np.random.default_rng(5)
        values = rng.lognormal(0, 0.3, cal.n_observations) + 0.1
        values[300:360] = 0.0  # 5 hours dead
        report = validate_trace(trace(cal, values))
        assert report.has(IssueKind.DEAD_COLLECTOR)

    def test_thresholds_tunable(self, cal):
        rng = np.random.default_rng(6)
        values = rng.lognormal(0, 0.3, cal.n_observations) + 0.1
        values[0:30] = 0.0
        default = validate_trace(trace(cal, values))
        strict = validate_trace(trace(cal, values), dead_run_slots=10)
        assert not default.has(IssueKind.DEAD_COLLECTOR)
        assert strict.has(IssueKind.DEAD_COLLECTOR)


class TestQuarantineSeries:
    def test_clean_series_untouched(self):
        from repro.traces.validation import quarantine_series

        values = np.array([1.0, 2.0, 3.0])
        repaired, counts = quarantine_series(values)
        np.testing.assert_array_equal(repaired, values)
        assert counts == {}

    def test_nan_and_inf_forward_filled(self):
        from repro.traces.validation import RepairKind, quarantine_series

        values = np.array([1.0, np.nan, np.inf, 4.0, np.nan])
        repaired, counts = quarantine_series(values)
        np.testing.assert_array_equal(repaired, [1.0, 1.0, 1.0, 4.0, 4.0])
        assert counts[RepairKind.NON_FINITE] == 3

    def test_leading_gap_reads_zero(self):
        from repro.traces.validation import quarantine_series

        repaired, _ = quarantine_series(np.array([np.nan, np.nan, 2.0]))
        np.testing.assert_array_equal(repaired, [0.0, 0.0, 2.0])

    def test_negatives_clamped_and_counted(self):
        from repro.traces.validation import RepairKind, quarantine_series

        repaired, counts = quarantine_series(np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(repaired, [1.0, 0.0, 3.0])
        assert counts[RepairKind.NEGATIVE] == 1

    def test_input_not_mutated(self):
        from repro.traces.validation import quarantine_series

        values = np.array([np.nan, -1.0])
        quarantine_series(values)
        assert np.isnan(values[0]) and values[1] == -1.0


class TestRepairReport:
    def test_describe_clean_and_dirty(self):
        from repro.traces.validation import RepairKind, TraceRepairReport

        clean = TraceRepairReport(workload="app")
        assert clean.clean
        assert clean.describe() == "app: clean"
        dirty = TraceRepairReport(
            workload="app",
            counts={RepairKind.NON_FINITE: 2, RepairKind.NEGATIVE: 1},
        )
        assert dirty.total == 3
        assert "non-finite=2" in dirty.describe()
        assert "negative=1" in dirty.describe()
