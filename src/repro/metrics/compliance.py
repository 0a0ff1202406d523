"""Per-application QoS compliance checking (Section III's contract).

Given what a workload actually demanded and what it was actually
granted, :func:`check_compliance` verifies the application QoS
requirement:

* **acceptable performance** — at least ``M%`` of measurements with
  utilization of allocation within ``[U_low, U_high]`` (utilizations
  below ``U_low`` also count as acceptable: the application is merely
  over-allocated);
* **degraded performance** — the remaining measurements must not exceed
  ``U_degr``;
* **time-limited degradation** — no more than ``T_degr`` *contiguous*
  minutes above ``U_high``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.qos import ApplicationQoS
from repro.exceptions import InvariantError, TraceError
from repro.units import Fraction01, Slots
from repro.util.floats import METRIC_ATOL, at_most, is_zero
from repro.traces.calendar import TraceCalendar
from repro.traces.ops import longest_run_above
from repro.traces.trace import DemandTrace


@dataclass(frozen=True)
class ComplianceReport:
    """Measured compliance of one workload against one QoS requirement."""

    workload: str
    n_observations: int
    acceptable_fraction: Fraction01
    degraded_fraction: Fraction01
    violation_fraction: Fraction01
    longest_degraded_run_slots: Slots
    longest_degraded_run_minutes: float
    meets_band_budget: bool
    meets_ceiling: bool
    meets_time_limit: bool

    def __post_init__(self) -> None:
        # Per-field checks are written out so ROP011 can see each one.
        if not 0.0 <= self.acceptable_fraction <= 1.0:
            raise InvariantError(
                f"acceptable_fraction must be in [0, 1], "
                f"got {self.acceptable_fraction}"
            )
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise InvariantError(
                f"degraded_fraction must be in [0, 1], "
                f"got {self.degraded_fraction}"
            )
        if not 0.0 <= self.violation_fraction <= 1.0:
            raise InvariantError(
                f"violation_fraction must be in [0, 1], "
                f"got {self.violation_fraction}"
            )
        if self.longest_degraded_run_slots < 0:
            raise InvariantError(
                f"longest_degraded_run_slots must be >= 0, "
                f"got {self.longest_degraded_run_slots}"
            )

    @property
    def compliant(self) -> bool:
        """True when every clause of the requirement is met."""
        return self.meets_band_budget and self.meets_ceiling and self.meets_time_limit


def utilization_series(
    demand: np.ndarray, granted: np.ndarray
) -> np.ndarray:
    """Utilization of allocation with the zero conventions of the paper.

    Zero demand yields utilization 0 regardless of allocation; positive
    demand with zero allocation yields ``inf`` (starvation).
    """
    demand = np.asarray(demand, dtype=float)
    granted = np.asarray(granted, dtype=float)
    if demand.shape != granted.shape:
        raise TraceError("demand and granted series must have matching shapes")
    utilization = np.zeros_like(demand)
    positive = granted > 0
    utilization[positive] = demand[positive] / granted[positive]
    utilization[(~positive) & (demand > 0)] = np.inf
    return utilization


def check_compliance(
    demand: DemandTrace,
    granted: np.ndarray,
    qos: ApplicationQoS,
) -> ComplianceReport:
    """Check one workload's measured grants against its QoS requirement."""
    granted = np.asarray(granted, dtype=float)
    utilization = utilization_series(demand.values, granted)
    calendar: TraceCalendar = demand.calendar
    n = len(demand)

    active = demand.values > 0
    degraded_mask = (utilization > qos.u_high) & active
    ceiling = qos.u_degr if qos.u_degr is not None else qos.u_high
    violation_mask = (utilization > ceiling + METRIC_ATOL) & active

    degraded_fraction = float(np.count_nonzero(degraded_mask)) / n if n else 0.0
    violation_fraction = float(np.count_nonzero(violation_mask)) / n if n else 0.0
    acceptable_fraction = 1.0 - degraded_fraction

    run_slots = longest_run_above(degraded_mask, 0.5)
    run_minutes = run_slots * calendar.slot_minutes

    budget = qos.m_degr_fraction
    meets_band_budget = at_most(degraded_fraction, budget)
    meets_ceiling = is_zero(violation_fraction)
    if qos.t_degr_minutes is None:
        meets_time_limit = True
    else:
        meets_time_limit = at_most(run_minutes, qos.t_degr_minutes)

    return ComplianceReport(
        workload=demand.name,
        n_observations=n,
        acceptable_fraction=acceptable_fraction,
        degraded_fraction=degraded_fraction,
        violation_fraction=violation_fraction,
        longest_degraded_run_slots=run_slots,
        longest_degraded_run_minutes=run_minutes,
        meets_band_budget=meets_band_budget,
        meets_ceiling=meets_ceiling,
        meets_time_limit=meets_time_limit,
    )
