"""The observation grid shared by all traces in an analysis.

The paper characterises each workload with ``W`` weeks of observations,
``7`` days per week and ``T`` slots per day measured every ``m`` minutes
(Section IV). For 5-minute intervals ``T = 288``. The resource access
probability theta is computed *per slot of day, per week*, so the calendar
maps a flat series onto ``(week, day, slot)`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CalendarMismatchError, TraceError

MINUTES_PER_DAY = 24 * 60
DAYS_PER_WEEK = 7


@dataclass(frozen=True)
class SlotIndex:
    """Coordinates of one observation on the calendar grid."""

    week: int
    day: int
    slot: int


@dataclass(frozen=True)
class TraceCalendar:
    """A fixed-interval observation grid spanning whole weeks.

    Parameters
    ----------
    weeks:
        Number of whole weeks covered (``W`` in the paper). Must be >= 1.
    slot_minutes:
        Measurement interval in minutes (``m`` in the paper). Must divide
        a day evenly; the paper uses 5 minutes.

    >>> cal = TraceCalendar(weeks=4, slot_minutes=5)
    >>> cal.slots_per_day
    288
    >>> cal.n_observations
    8064
    """

    weeks: int
    slot_minutes: int = 5

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise TraceError(f"weeks must be >= 1, got {self.weeks}")
        if self.slot_minutes < 1:
            raise TraceError(f"slot_minutes must be >= 1, got {self.slot_minutes}")
        if MINUTES_PER_DAY % self.slot_minutes != 0:
            raise TraceError(
                f"slot_minutes must divide a day evenly, got {self.slot_minutes}"
            )

    @property
    def slots_per_day(self) -> int:
        """``T`` in the paper: observations per day."""
        return MINUTES_PER_DAY // self.slot_minutes

    @property
    def slots_per_week(self) -> int:
        return self.slots_per_day * DAYS_PER_WEEK

    @property
    def n_observations(self) -> int:
        """Total flat length of any trace on this calendar."""
        return self.weeks * self.slots_per_week

    def coordinates(self, flat: int) -> SlotIndex:
        """Map a flat array index back to ``(week, day, slot)`` coordinates."""
        if not 0 <= flat < self.n_observations:
            raise TraceError(
                f"flat index {flat} out of range [0, {self.n_observations})"
            )
        week, within_week = divmod(flat, self.slots_per_week)
        day, slot = divmod(within_week, self.slots_per_day)
        return SlotIndex(week=week, day=day, slot=slot)

    def slot_of_day_view(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat series to ``(weeks, days, slots_per_day)``.

        This is the shape theta measurement needs: axis 0 indexes weeks,
        axis 1 days-of-week, axis 2 the slot of day.
        """
        values = np.asarray(values)
        if values.shape != (self.n_observations,):
            raise CalendarMismatchError(
                f"series of length {values.shape} does not match calendar with "
                f"{self.n_observations} observations"
            )
        return values.reshape(self.weeks, DAYS_PER_WEEK, self.slots_per_day)

    def slots_for_duration(self, minutes: float) -> int:
        """Number of whole observation slots covering ``minutes``.

        Used to convert the paper's ``T_degr`` (e.g. 30 minutes) and the
        CoS deadline ``s`` (e.g. 60 minutes) into slot counts. A duration
        that is not a multiple of the slot interval is rounded down to the
        number of *complete* slots it contains, matching the paper's ``R``
        observations in ``T_degr`` minutes.
        """
        if minutes < 0:
            raise TraceError(f"duration must be >= 0 minutes, got {minutes}")
        return int(minutes // self.slot_minutes)

    def compatible_with(self, other: "TraceCalendar") -> bool:
        """True when two calendars describe the identical grid."""
        return (
            self.weeks == other.weeks and self.slot_minutes == other.slot_minutes
        )

    def require_compatible(self, other: "TraceCalendar") -> None:
        """Raise :class:`CalendarMismatchError` unless grids are identical."""
        if not self.compatible_with(other):
            raise CalendarMismatchError(
                f"calendar {self} is incompatible with {other}"
            )
