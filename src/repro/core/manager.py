"""Ongoing capacity management across the paper's Figure 1 timescales.

The framework pieces (translation, placement, failure planning) answer
one planning question at one point in time. Operating a pool is a loop:

* **medium term** (weeks to months): re-run the consolidation on a
  sliding window of recent history, adjusting assignments as demand
  drifts — and pay attention to *migrations*, because every workload
  move disrupts an application;
* **long term**: extrapolate demand growth and find the horizon at
  which the current pool stops being sufficient, so procurement can
  start before capacity runs out.

:class:`CapacityManager` implements both loops on top of
:class:`~repro.core.framework.ROpus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.framework import PolicyMap, ROpus
from repro.exceptions import ConfigurationError, PlacementError
from repro.placement.consolidation import ConsolidationResult
from repro.traces.ops import slice_weeks
from repro.traces.trace import DemandTrace
from repro.workloads.forecast import estimate_weekly_growth, extrapolate_ensemble


@dataclass(frozen=True)
class RollingStep:
    """One re-planning step of the medium-term loop."""

    start_week: int
    end_week: int
    result: ConsolidationResult
    migrations: tuple[str, ...]

    @property
    def n_migrations(self) -> int:
        return len(self.migrations)


@dataclass(frozen=True)
class RollingPlanReport:
    """Outcome of re-planning over a sliding window of history."""

    steps: tuple[RollingStep, ...]

    @property
    def total_migrations(self) -> int:
        return sum(step.n_migrations for step in self.steps)

    @property
    def max_servers_used(self) -> int:
        return max(step.result.servers_used for step in self.steps)

    def servers_used_series(self) -> list[int]:
        return [step.result.servers_used for step in self.steps]


@dataclass(frozen=True)
class OutlookStep:
    """One horizon point of the long-term outlook."""

    weeks_ahead: int
    feasible: bool
    servers_used: Optional[int]
    sum_required: Optional[float]


@dataclass(frozen=True)
class CapacityOutlook:
    """When does the current pool stop being sufficient?"""

    steps: tuple[OutlookStep, ...]
    growth_by_name: Mapping[str, float]

    @property
    def weeks_until_exhausted(self) -> Optional[int]:
        """First horizon at which no feasible plan exists (None = never
        within the studied horizon)."""
        for step in self.steps:
            if not step.feasible:
                return step.weeks_ahead
        return None


class CapacityManager:
    """Medium- and long-term planning loops over an :class:`ROpus` core."""

    def __init__(self, framework: ROpus):
        self.framework = framework

    # ------------------------------------------------------------------
    # Medium term: sliding-window re-planning
    # ------------------------------------------------------------------
    def rolling_plan(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        *,
        window_weeks: int,
        step_weeks: int = 1,
        algorithm: str = "genetic",
        sticky: bool = True,
    ) -> RollingPlanReport:
        """Re-plan on every ``step_weeks`` advance of a sliding window.

        Each step consolidates the trailing ``window_weeks`` of history
        (the paper's "recent data" adaptation) and records which
        workloads changed servers relative to the previous step's plan.
        With ``sticky=True`` (default) each re-plan is seeded with the
        previous assignment, so the search only migrates workloads when
        doing so genuinely improves the consolidation.
        """
        if not demands:
            raise ConfigurationError("need at least one workload")
        total_weeks = demands[0].calendar.weeks
        if window_weeks < 1 or window_weeks > total_weeks:
            raise ConfigurationError(
                f"window_weeks must be in [1, {total_weeks}], got {window_weeks}"
            )
        if step_weeks < 1:
            raise ConfigurationError(
                f"step_weeks must be >= 1, got {step_weeks}"
            )

        instrumentation = self.framework.engine.instrumentation
        steps: list[RollingStep] = []
        previous_result: ConsolidationResult | None = None
        for start_week in range(0, total_weeks - window_weeks + 1, step_weeks):
            with instrumentation.stage("manager.rolling_step"):
                window = [
                    slice_weeks(demand, start_week, window_weeks)
                    for demand in demands
                ]
                plan = self.framework.plan(
                    window,
                    policies,
                    plan_failures=False,
                    algorithm=algorithm,
                    previous=previous_result if sticky else None,
                )
                migrations = (
                    ()
                    if previous_result is None
                    else plan.consolidation.moved_from(previous_result)
                )
                steps.append(
                    RollingStep(
                        start_week=start_week,
                        end_week=start_week + window_weeks,
                        result=plan.consolidation,
                        migrations=migrations,
                    )
                )
                previous_result = plan.consolidation
            instrumentation.count("manager.rolling_steps")
            instrumentation.count("manager.migrations", len(migrations))
        return RollingPlanReport(steps=tuple(steps))

    # ------------------------------------------------------------------
    # Long term: growth-driven capacity outlook
    # ------------------------------------------------------------------
    def capacity_outlook(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        *,
        horizon_weeks: int,
        step_weeks: int = 4,
        growth_by_name: Mapping[str, float] | None = None,
        algorithm: str = "genetic",
    ) -> CapacityOutlook:
        """Project demand forward and find when the pool runs out.

        Growth rates default to per-workload trends fitted from the
        historical traces. Each horizon step extrapolates the ensemble,
        re-runs the planning, and records feasibility; the first
        infeasible horizon is the procurement deadline.
        """
        if horizon_weeks < 1:
            raise ConfigurationError(
                f"horizon_weeks must be >= 1, got {horizon_weeks}"
            )
        if step_weeks < 1:
            raise ConfigurationError(
                f"step_weeks must be >= 1, got {step_weeks}"
            )
        if growth_by_name is None:
            growth_by_name = {
                demand.name: estimate_weekly_growth(demand).weekly_growth
                for demand in demands
            }

        instrumentation = self.framework.engine.instrumentation
        steps: list[OutlookStep] = []
        for weeks_ahead in range(0, horizon_weeks + 1, step_weeks):
            with instrumentation.stage("manager.outlook_step"):
                projected = extrapolate_ensemble(
                    list(demands), weeks_ahead, dict(growth_by_name)
                )
                try:
                    plan = self.framework.plan(
                        projected,
                        policies,
                        plan_failures=False,
                        algorithm=algorithm,
                    )
                except PlacementError:
                    steps.append(
                        OutlookStep(
                            weeks_ahead=weeks_ahead,
                            feasible=False,
                            servers_used=None,
                            sum_required=None,
                        )
                    )
                    instrumentation.count("manager.outlook_steps")
                    continue
                steps.append(
                    OutlookStep(
                        weeks_ahead=weeks_ahead,
                        feasible=True,
                        servers_used=plan.servers_used,
                        sum_required=plan.consolidation.sum_required,
                    )
                )
            instrumentation.count("manager.outlook_steps")
        return CapacityOutlook(
            steps=tuple(steps), growth_by_name=dict(growth_by_name)
        )
