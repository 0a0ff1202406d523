"""Trace substrate: time-indexed demand and allocation series.

R-Opus is trace-driven: every decision (QoS translation, placement,
compliance measurement) consumes multi-week, fixed-interval observation
series. This package provides the calendar grid (:class:`TraceCalendar`),
the demand series (:class:`DemandTrace`), per-CoS allocation series
(:class:`AllocationTrace`, :class:`CoSAllocationPair`), analysis helpers
(:mod:`repro.traces.ops`) and serialization (:mod:`repro.traces.io`).
"""

from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import SlotIndex, TraceCalendar
from repro.traces.ops import (
    contiguous_runs_above,
    longest_run_above,
    percentile_profile,
    slice_weeks,
)
from repro.traces.trace import DemandTrace
from repro.traces.validation import (
    IssueKind,
    RepairKind,
    TraceIssue,
    TraceQualityReport,
    TraceRepairReport,
    quarantine_series,
    validate_ensemble,
    validate_trace,
)

__all__ = [
    "AllocationTrace",
    "CoSAllocationPair",
    "DemandTrace",
    "SlotIndex",
    "TraceCalendar",
    "IssueKind",
    "RepairKind",
    "TraceIssue",
    "TraceQualityReport",
    "TraceRepairReport",
    "quarantine_series",
    "contiguous_runs_above",
    "longest_run_above",
    "percentile_profile",
    "slice_weeks",
    "validate_ensemble",
    "validate_trace",
]
