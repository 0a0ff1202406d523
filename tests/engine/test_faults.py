"""Tests for the deterministic fault-injection primitives."""

import pytest

from repro.engine.faults import (
    CorruptedResult,
    FaultClock,
    FaultKind,
    FaultPlan,
    seeded_occurrences,
)
from repro.exceptions import ROpusError


class TestSeededOccurrences:
    def test_same_seed_same_schedule(self):
        first = seeded_occurrences(7, "crash", 0.2, 100)
        second = seeded_occurrences(7, "crash", 0.2, 100)
        assert first == second

    def test_labels_give_independent_streams(self):
        crash = seeded_occurrences(7, "crash", 0.5, 200)
        hang = seeded_occurrences(7, "hang", 0.5, 200)
        assert crash != hang

    def test_zero_rate_or_horizon_is_empty(self):
        assert seeded_occurrences(1, "x", 0.0, 100) == frozenset()
        assert seeded_occurrences(1, "x", 0.5, 0) == frozenset()

    def test_rate_one_fires_everywhere(self):
        assert seeded_occurrences(1, "x", 1.0, 10) == frozenset(range(10))

    def test_occurrences_within_horizon(self):
        occurrences = seeded_occurrences(3, "x", 0.3, 50)
        assert all(0 <= index < 50 for index in occurrences)

    def test_rejects_bad_rate_and_horizon(self):
        with pytest.raises(ROpusError):
            # Out-of-domain on purpose: rejection is what's asserted.
            seeded_occurrences(0, "x", 1.5, 10)
        with pytest.raises(ROpusError):
            seeded_occurrences(0, "x", -0.1, 10)
        with pytest.raises(ROpusError):
            seeded_occurrences(0, "x", 0.5, -1)


class TestFaultPlan:
    def test_none_is_empty(self):
        plan = FaultPlan.none()
        assert plan.empty
        assert not plan.fires(FaultKind.WORKER_CRASH, 0)

    def test_of_builds_by_kind_value(self):
        plan = FaultPlan.of(worker_crash=[0, 3], corrupt_result=[1])
        assert plan.fires(FaultKind.WORKER_CRASH, 0)
        assert plan.fires(FaultKind.WORKER_CRASH, 3)
        assert not plan.fires(FaultKind.WORKER_CRASH, 1)
        assert plan.fires(FaultKind.CORRUPT_RESULT, 1)
        assert not plan.empty

    def test_of_rejects_unknown_kind(self):
        with pytest.raises(ROpusError):
            FaultPlan.of(gamma_ray=[0])

    def test_rejects_negative_occurrence(self):
        with pytest.raises(ROpusError):
            FaultPlan.of(worker_crash=[-1])

    def test_rejects_nonpositive_hang(self):
        with pytest.raises(ROpusError):
            FaultPlan.of(hang_seconds=0.0)

    def test_seeded_is_reproducible(self):
        kwargs = dict(horizon=128, crash_rate=0.1, corrupt_rate=0.1)
        assert FaultPlan.seeded(5, **kwargs) == FaultPlan.seeded(5, **kwargs)
        assert FaultPlan.seeded(5, **kwargs) != FaultPlan.seeded(6, **kwargs)

    def test_seeded_zero_rates_is_empty(self):
        assert FaultPlan.seeded(5, horizon=64).empty

    def test_plan_is_picklable_and_hashable(self):
        import pickle

        plan = FaultPlan.of(worker_crash=[2])
        assert pickle.loads(pickle.dumps(plan)) == plan
        hash(plan.occurrences(FaultKind.WORKER_CRASH))


class TestFaultClock:
    def test_take_advances_monotonically(self):
        clock = FaultClock()
        assert list(clock.take("worker", 3)) == [0, 1, 2]
        assert list(clock.take("worker", 2)) == [3, 4]

    def test_sites_are_independent(self):
        clock = FaultClock()
        clock.take("worker", 10)
        assert list(clock.take("checkpoint")) == [0]

    def test_corrupted_result_is_inert_marker(self):
        marker = CorruptedResult(occurrence=7)
        assert marker.occurrence == 7
