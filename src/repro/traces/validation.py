"""Trace quality validation.

Real monitoring data is messy: collectors die (stretches of zeros),
agents wedge (impossibly constant readings), and instrumentation bugs
produce isolated absurd spikes. Feeding such traces to the QoS
translation silently skews every downstream decision — a stuck-high
reading inflates D_max, a dead collector deflates the percentiles.

:func:`validate_trace` screens a demand trace for these pathologies and
returns a structured report; callers decide whether to repair, drop, or
proceed. The checks are heuristics with tunable thresholds, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from repro.traces.ops import contiguous_runs_above
from repro.traces.trace import DemandTrace


class IssueKind(Enum):
    """Categories of trace-quality problems."""

    ALL_ZERO = "all-zero"
    MOSTLY_ZERO = "mostly-zero"
    CONSTANT = "constant"
    STUCK_VALUE = "stuck-value"
    EXTREME_OUTLIER = "extreme-outlier"
    DEAD_COLLECTOR = "dead-collector"


@dataclass(frozen=True)
class TraceIssue:
    """One detected problem, with enough context to investigate."""

    kind: IssueKind
    message: str
    start: int | None = None
    stop: int | None = None


@dataclass(frozen=True)
class TraceQualityReport:
    """All problems found in one trace."""

    workload: str
    n_observations: int
    issues: tuple[TraceIssue, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return not self.issues

    def has(self, kind: IssueKind) -> bool:
        return any(issue.kind is kind for issue in self.issues)


class RepairKind(Enum):
    """Categories of observations quarantined at ingest."""

    NON_FINITE = "non-finite"
    NEGATIVE = "negative"
    OUT_OF_ORDER = "out-of-order"
    MALFORMED_ROW = "malformed-row"


@dataclass(frozen=True)
class TraceRepairReport:
    """What ingest had to repair to admit one workload's series.

    Row-level problems (out-of-order rows, malformed rows) affect every
    workload in the file and appear in each workload's report; cell
    repairs (:attr:`RepairKind.NON_FINITE`, :attr:`RepairKind.NEGATIVE`)
    are counted per workload.
    """

    workload: str
    counts: Mapping[RepairKind, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def clean(self) -> bool:
        return self.total == 0

    def count(self, kind: RepairKind) -> int:
        return self.counts.get(kind, 0)

    def describe(self) -> str:
        if self.clean:
            return f"{self.workload}: clean"
        parts = ", ".join(
            f"{kind.value}={count}"
            for kind, count in sorted(
                self.counts.items(), key=lambda entry: entry[0].value
            )
            if count
        )
        return f"{self.workload}: {self.total} repairs ({parts})"


def quarantine_series(
    values: np.ndarray,
) -> tuple[np.ndarray, dict[RepairKind, int]]:
    """Repair a raw observation series instead of rejecting it.

    Non-finite observations (NaN / inf — a cell that failed to parse, a
    collector glitch) are replaced by the last finite observation before
    them (zero when there is none): carrying demand forward is the
    conservative choice, since a dead collector reads zero but the
    workload kept running. Negative observations are clamped to zero —
    demand below zero is always an instrumentation artifact. Returns the
    repaired copy plus the per-kind repair counts.
    """
    out = np.array(values, dtype=float)
    counts: dict[RepairKind, int] = {}
    bad = ~np.isfinite(out)
    if bad.any():
        counts[RepairKind.NON_FINITE] = int(bad.sum())
        n = out.shape[0]
        # Forward-fill: positions[i] is the latest finite index <= i
        # (-1 when none exists yet).
        positions = np.arange(n)
        positions[bad] = -1
        np.maximum.accumulate(positions, out=positions)
        filled = np.where(
            positions >= 0, out[np.clip(positions, 0, None)], 0.0
        )
        out = np.where(bad, filled, out)
    negative = out < 0
    if negative.any():
        counts[RepairKind.NEGATIVE] = int(negative.sum())
        out = np.where(negative, 0.0, out)
    return out, counts


def validate_trace(
    trace: DemandTrace,
    *,
    zero_fraction_threshold: float = 0.5,
    stuck_run_slots: int = 48,
    outlier_ratio: float = 20.0,
    dead_run_slots: int = 36,
) -> TraceQualityReport:
    """Screen one demand trace for common monitoring pathologies.

    Parameters
    ----------
    zero_fraction_threshold:
        Flag ``MOSTLY_ZERO`` when more than this fraction of
        observations is exactly zero.
    stuck_run_slots:
        Flag ``STUCK_VALUE`` when the same positive value repeats for
        more than this many consecutive slots (4 hours at 5-minute
        sampling by default) — realistic demand always jitters.
    outlier_ratio:
        Flag ``EXTREME_OUTLIER`` when the peak exceeds this multiple of
        the 99th percentile — a single reading that far above the rest
        of the distribution is usually an instrumentation artifact.
    dead_run_slots:
        Flag ``DEAD_COLLECTOR`` for a contiguous all-zero stretch longer
        than this (3 hours by default) inside an otherwise live trace.
    """
    values = trace.values
    issues: list[TraceIssue] = []

    if values.size and not values.any():
        issues.append(
            TraceIssue(IssueKind.ALL_ZERO, "every observation is zero")
        )
        return TraceQualityReport(trace.name, len(trace), tuple(issues))

    zero_fraction = float(np.count_nonzero(values == 0)) / values.size
    if zero_fraction > zero_fraction_threshold:
        issues.append(
            TraceIssue(
                IssueKind.MOSTLY_ZERO,
                f"{zero_fraction:.0%} of observations are zero",
            )
        )

    if trace.is_constant():
        issues.append(
            TraceIssue(
                IssueKind.CONSTANT,
                f"every observation equals {values[0]:g}",
            )
        )
        return TraceQualityReport(trace.name, len(trace), tuple(issues))

    issues.extend(_stuck_value_issues(values, stuck_run_slots))

    p99 = float(np.percentile(values, 99))
    peak = float(values.max())
    if p99 > 0 and peak > outlier_ratio * p99:
        peak_index = int(values.argmax())
        issues.append(
            TraceIssue(
                IssueKind.EXTREME_OUTLIER,
                f"peak {peak:g} is {peak / p99:.0f}x the 99th percentile",
                start=peak_index,
                stop=peak_index + 1,
            )
        )

    # Dead collector: long all-zero runs inside a live trace.
    zero_mask = values == 0
    for run in contiguous_runs_above(zero_mask, 0.5):
        if run.length > dead_run_slots:
            issues.append(
                TraceIssue(
                    IssueKind.DEAD_COLLECTOR,
                    f"{run.length} consecutive zero observations",
                    start=run.start,
                    stop=run.stop,
                )
            )

    return TraceQualityReport(trace.name, len(trace), tuple(issues))


def _stuck_value_issues(
    values: np.ndarray, stuck_run_slots: int
) -> list[TraceIssue]:
    """Find long runs of one repeated positive value.

    A run ends wherever a value differs from its predecessor; NaN equals
    nothing, so every NaN is a run of its own and is never flagged.
    """
    n = values.shape[0]
    if n == 0:
        return []
    starts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))
    stops = np.append(starts[1:], n)
    flagged = (stops - starts > stuck_run_slots) & (values[starts] > 0)
    return [
        TraceIssue(
            IssueKind.STUCK_VALUE,
            f"value {values[start]:g} repeated {stop - start} times",
            start=start,
            stop=stop,
        )
        for start, stop in zip(starts[flagged].tolist(), stops[flagged].tolist())
    ]


def validate_ensemble(
    traces: Sequence[DemandTrace], **thresholds
) -> dict[str, TraceQualityReport]:
    """Validate every trace; returns reports keyed by workload name."""
    return {
        trace.name: validate_trace(trace, **thresholds) for trace in traces
    }
