"""Trace analysis primitives.

These are the low-level numeric operations the QoS translation and the
compliance metrics are built from: percentile profiles, contiguous-run
detection (for the ``T_degr`` time-limited degradation constraint), and
whole-week windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import TraceError
from repro.traces.trace import DemandTrace


@dataclass(frozen=True)
class Run:
    """A maximal contiguous stretch of indices ``[start, stop)``."""

    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop)


def contiguous_runs_above(values: np.ndarray, threshold: float) -> list[Run]:
    """Find maximal runs of consecutive values strictly above ``threshold``.

    Returns runs in order of appearance. An empty array yields no runs.
    A boolean mask is compared as 0 / 1 where it lies, with no float
    copy.

    >>> contiguous_runs_above(np.array([0, 2, 2, 0, 2]), 1)
    [Run(start=1, stop=3), Run(start=4, stop=5)]
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise TraceError(f"values must be 1-D, got shape {values.shape}")
    above = values > threshold
    if not above.any():
        return []
    # Transitions: +1 where a run starts, -1 one past where it ends.
    padded = np.concatenate(([False], above, [False]))
    deltas = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(deltas == 1)
    stops = np.flatnonzero(deltas == -1)
    return [Run(int(start), int(stop)) for start, stop in zip(starts, stops)]


def longest_run_above(values: np.ndarray, threshold: float) -> int:
    """Length of the longest contiguous run strictly above ``threshold``."""
    runs = contiguous_runs_above(values, threshold)
    if not runs:
        return 0
    return max(run.length for run in runs)


def percentile_profile(
    trace: DemandTrace, percentiles: Iterable[float]
) -> dict[float, float]:
    """Several percentiles of one trace, normalised to its peak.

    This reproduces the y-axis of the paper's Figure 6: percentiles of CPU
    demand as a percentage of the workload's own peak. A zero-peak trace
    maps every percentile to 0.
    """
    peak = trace.peak()
    profile: dict[float, float] = {}
    for percentile in percentiles:
        value = trace.percentile(percentile)
        profile[float(percentile)] = 0.0 if peak == 0 else 100.0 * value / peak
    return profile


def slice_weeks(trace: DemandTrace, start_week: int, n_weeks: int) -> DemandTrace:
    """Extract a whole-week window of a trace as a new trace.

    The result lives on a fresh :class:`TraceCalendar` of ``n_weeks``
    weeks at the same resolution — exactly the shape the placement
    service expects, so rolling capacity management can re-plan on a
    sliding window of recent history.
    """
    from repro.traces.calendar import TraceCalendar

    calendar = trace.calendar
    if n_weeks < 1:
        raise TraceError(f"n_weeks must be >= 1, got {n_weeks}")
    if not 0 <= start_week <= calendar.weeks - n_weeks:
        raise TraceError(
            f"window [{start_week}, {start_week + n_weeks}) out of range for "
            f"a {calendar.weeks}-week trace"
        )
    start = start_week * calendar.slots_per_week
    stop = start + n_weeks * calendar.slots_per_week
    window_calendar = TraceCalendar(
        weeks=n_weeks, slot_minutes=calendar.slot_minutes
    )
    return DemandTrace(
        trace.name, trace.values[start:stop], window_calendar, trace.attribute
    )

