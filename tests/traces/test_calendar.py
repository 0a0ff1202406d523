"""Tests for the trace calendar grid."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import CalendarMismatchError, TraceError
from repro.traces.calendar import DAYS_PER_WEEK, SlotIndex, TraceCalendar


class TestConstruction:
    def test_paper_defaults(self):
        calendar = TraceCalendar(weeks=4, slot_minutes=5)
        assert calendar.slots_per_day == 288
        assert calendar.slots_per_week == 288 * 7
        assert calendar.n_observations == 4 * 7 * 288

    def test_hourly_resolution(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=60)
        assert calendar.slots_per_day == 24
        assert calendar.n_observations == 168

    def test_rejects_zero_weeks(self):
        with pytest.raises(TraceError):
            TraceCalendar(weeks=0)

    def test_rejects_non_divisor_slot(self):
        with pytest.raises(TraceError):
            TraceCalendar(weeks=1, slot_minutes=7)

    def test_rejects_negative_slot_minutes(self):
        with pytest.raises(TraceError):
            TraceCalendar(weeks=1, slot_minutes=-5)


class TestIndexing:
    def test_coordinates_of_last_observation(self):
        calendar = TraceCalendar(weeks=2, slot_minutes=60)
        coords = calendar.coordinates(calendar.n_observations - 1)
        assert coords == SlotIndex(week=1, day=6, slot=23)

    def test_out_of_range_flat_index(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=60)
        with pytest.raises(TraceError):
            calendar.coordinates(calendar.n_observations)
        with pytest.raises(TraceError):
            calendar.coordinates(-1)

    @given(st.integers(min_value=0, max_value=4 * 7 * 288 - 1))
    def test_coordinates_index_the_slot_of_day_view(self, flat):
        calendar = TraceCalendar(weeks=4, slot_minutes=5)
        view = calendar.slot_of_day_view(np.arange(calendar.n_observations))
        coords = calendar.coordinates(flat)
        assert view[coords.week, coords.day, coords.slot] == flat


class TestViews:
    def test_slot_of_day_view_shape(self):
        calendar = TraceCalendar(weeks=3, slot_minutes=60)
        values = np.arange(calendar.n_observations, dtype=float)
        view = calendar.slot_of_day_view(values)
        assert view.shape == (3, DAYS_PER_WEEK, 24)

    def test_slot_of_day_view_layout(self):
        calendar = TraceCalendar(weeks=2, slot_minutes=60)
        values = np.arange(calendar.n_observations, dtype=float)
        view = calendar.slot_of_day_view(values)
        # week 1, day 2, slot 5 should be flat index 1*168 + 2*24 + 5.
        assert view[1, 2, 5] == 168 + 48 + 5

    def test_slot_of_day_view_rejects_wrong_length(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=60)
        with pytest.raises(CalendarMismatchError):
            calendar.slot_of_day_view(np.zeros(10))


class TestDurations:
    def test_slots_for_duration_exact(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=5)
        assert calendar.slots_for_duration(30) == 6
        assert calendar.slots_for_duration(60) == 12

    def test_slots_for_duration_rounds_down(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=5)
        assert calendar.slots_for_duration(29) == 5
        assert calendar.slots_for_duration(4) == 0

    def test_slots_for_duration_zero(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=5)
        assert calendar.slots_for_duration(0) == 0

    def test_slots_for_duration_negative_rejected(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=5)
        with pytest.raises(TraceError):
            calendar.slots_for_duration(-1)


class TestCompatibility:
    def test_identical_calendars_compatible(self):
        assert TraceCalendar(2, 5).compatible_with(TraceCalendar(2, 5))

    def test_different_weeks_incompatible(self):
        assert not TraceCalendar(2, 5).compatible_with(TraceCalendar(3, 5))

    def test_different_resolution_incompatible(self):
        assert not TraceCalendar(2, 5).compatible_with(TraceCalendar(2, 10))

    def test_require_compatible_raises(self):
        with pytest.raises(CalendarMismatchError):
            TraceCalendar(2, 5).require_compatible(TraceCalendar(1, 5))
