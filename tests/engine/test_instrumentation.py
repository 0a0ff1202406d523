"""Tests for the instrumentation facility."""

import pytest

from repro.engine import Instrumentation


def make_instrumentation():
    """Instrumentation with a deterministic clock ticking 1.0 per call."""
    ticks = iter(float(i) for i in range(1000))
    return Instrumentation(clock=lambda: next(ticks))


class TestStages:
    def test_stage_records_elapsed(self):
        instr = make_instrumentation()
        with instr.stage("translation"):
            pass
        assert instr.timings() == {"translation": 1.0}

    def test_stage_accumulates_across_calls(self):
        instr = make_instrumentation()
        for _ in range(3):
            with instr.stage("placement"):
                pass
        stats = {s.name: s for s in instr.stage_stats()}["placement"]
        assert stats.calls == 3
        assert stats.total_seconds == 3.0
        assert stats.mean_seconds == pytest.approx(1.0)

    def test_stage_records_on_exception(self):
        instr = make_instrumentation()
        with pytest.raises(ValueError):
            with instr.stage("placement"):
                raise ValueError("boom")
        assert instr.timings()["placement"] == 1.0

    def test_record_stage_folds_external_duration(self):
        instr = make_instrumentation()
        instr.record_stage("failure_planning", 2.5)
        instr.record_stage("failure_planning", 0.5)
        stats = instr.stage_stats()[0]
        assert stats.total_seconds == 3.0
        assert stats.calls == 2

    def test_stage_stats_in_first_recorded_order(self):
        instr = make_instrumentation()
        instr.record_stage("b", 1.0)
        instr.record_stage("a", 1.0)
        instr.record_stage("b", 1.0)
        assert [s.name for s in instr.stage_stats()] == ["b", "a"]


class TestCounters:
    def test_count_defaults_to_one(self):
        instr = make_instrumentation()
        instr.count("translation.workloads")
        instr.count("translation.workloads", 4)
        assert instr.counters() == {"translation.workloads": 5.0}

    def test_counters_is_a_copy(self):
        instr = make_instrumentation()
        instr.count("x")
        instr.counters()["x"] = 99.0
        assert instr.counters() == {"x": 1.0}

    def test_counters_since_keeps_new_zero_counters(self):
        """Counters created after the snapshot survive at a zero delta.

        A kernel mode that records its full counter set with some zero
        values (e.g. no bracket iterations) must still surface those
        names in the run's delta — only *pre-existing* counters that did
        not advance are omitted.
        """
        instr = make_instrumentation()
        instr.count("kernel.calls", 2)
        instr.count("kernel.stale", 1)
        snapshot = instr.counters()
        instr.count("kernel.calls", 3)
        instr.count("kernel.bracket_iterations", 0)
        assert instr.counters_since(snapshot) == {
            "kernel.calls": 3.0,
            "kernel.bracket_iterations": 0.0,
        }


class TestDeltas:
    def test_timings_since_reports_only_advanced_stages(self):
        instr = make_instrumentation()
        with instr.stage("translation"):
            pass
        snapshot = instr.timings()
        with instr.stage("placement"):
            pass
        deltas = instr.timings_since(snapshot)
        assert deltas == {"placement": 1.0}

    def test_timings_since_accumulating_stage(self):
        instr = make_instrumentation()
        with instr.stage("translation"):
            pass
        snapshot = instr.timings()
        with instr.stage("translation"):
            pass
        assert instr.timings_since(snapshot) == {"translation": 1.0}
