"""Percentile-capping baseline (Urgaonkar et al., OSDI 2002).

Related work limits each application's capacity requirement to a
percentile of its demand — e.g. provision for the 97th percentile and
let the rest degrade. The paper's criticism (Section VIII) is that a
bare percentile budget ignores *how the degraded measurements cluster*:
a 3% budget can be spent as a single multi-hour outage. This module
implements the run-length analysis of a percentile cap, which exposes
the difference against R-Opus's ``M_degr``/``T_degr`` semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import QoSSpecificationError
from repro.traces.ops import contiguous_runs_above
from repro.traces.trace import DemandTrace


@dataclass(frozen=True)
class DegradedRunProfile:
    """How a workload's degraded observations cluster in time."""

    workload: str
    degraded_fraction: float
    n_runs: int
    longest_run_minutes: float
    mean_run_minutes: float


def degraded_run_profile(
    demand: DemandTrace,
    percentile: float,
) -> DegradedRunProfile:
    """Run-length statistics of the above-percentile observations.

    An observation is "degraded" under the baseline exactly when its
    demand exceeds the percentile cap. The profile shows whether the
    degradation budget is spent in short blips (harmless) or sustained
    outages (the failure mode ``T_degr`` exists to prevent).
    """
    if not 0 < percentile <= 100:
        raise QoSSpecificationError(
            f"percentile must be in (0, 100], got {percentile}"
        )
    cap = demand.percentile(percentile, method="higher")
    runs = contiguous_runs_above(demand.values, cap)
    slot_minutes = demand.calendar.slot_minutes
    n = len(demand)
    degraded = sum(run.length for run in runs)
    return DegradedRunProfile(
        workload=demand.name,
        degraded_fraction=degraded / n if n else 0.0,
        n_runs=len(runs),
        longest_run_minutes=(
            max((run.length for run in runs), default=0) * slot_minutes
        ),
        mean_run_minutes=(
            degraded / len(runs) * slot_minutes if runs else 0.0
        ),
    )
