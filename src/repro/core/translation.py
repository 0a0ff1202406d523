"""End-to-end QoS translation (Section V assembled).

The :class:`QoSTranslator` turns an application's demand trace plus its
QoS requirement into per-CoS allocation traces for the workload manager,
guaranteeing the application QoS as long as the pool honours its CoS
commitments. The pipeline is:

1. compute the breakpoint ``p`` from the acceptable band and the pool's
   CoS2 access probability (formula 1);
2. compute the demand cap ``D_new_max`` from the ``M_degr`` relaxation
   (formulas 2-3);
3. raise the cap as needed to honour the ``T_degr`` contiguous-
   degradation limit (formulas 6-11);
4. split each observation's (capped) demand at ``p x D_new_max`` between
   CoS1 and CoS2 and scale by the burst factor ``1 / U_low`` to obtain
   allocation requirements.

Translations are independent per workload and cost milliseconds each,
so :meth:`QoSTranslator.translate_items` runs them in the planner's
process: a worker pool lost time on every benchmark workload (DESIGN.md
section 10). It writes a set's allocations straight into one ``(n, T)``
matrix per class of service, the form the placement evaluator solves
on, so a plan holds one copy of its translated traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.cos import PoolCommitments
from repro.core.degradation import new_max_demand, realized_cap_reduction
from repro.core.partition import breakpoint_fraction, partition_demand
from repro.core.qos import ApplicationQoS
from repro.core.time_limited import (
    TimeLimitedResult,
    degraded_slots,
    enforce_time_limited_degradation,
    split_utilization,
)
from repro.engine.instrumentation import Instrumentation
from repro.exceptions import TranslationError
from repro.units import CpuShares, Fraction01, Slots
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.ops import longest_run_above
from repro.traces.trace import DemandTrace


@dataclass(frozen=True)
class TranslationResult:
    """A translated workload plus the diagnostics the paper reports.

    Attributes
    ----------
    pair:
        Per-CoS allocation traces for the workload manager.
    breakpoint:
        The CoS1 fraction ``p`` (formula 1).
    d_max / d_new_max:
        Raw peak demand and the final demand cap.
    cap_reduction:
        ``(D_max - D_new_max) / D_max`` (formula 4; the Figure 7 y-axis).
    degraded_fraction:
        Fraction of observations degraded under the worst-case model (the
        Figure 8 y-axis).
    longest_degraded_run_slots:
        Longest remaining contiguous degraded stretch.
    time_limited:
        Details of the ``T_degr`` iteration, when it ran.
    """

    pair: CoSAllocationPair
    breakpoint: Fraction01
    d_max: CpuShares
    d_new_max: CpuShares
    cap_reduction: Fraction01
    degraded_fraction: Fraction01
    longest_degraded_run_slots: Slots
    time_limited: Optional[TimeLimitedResult] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.breakpoint <= 1.0:
            raise TranslationError(
                f"breakpoint must be in [0, 1], got {self.breakpoint}"
            )
        if self.d_max < 0.0:
            raise TranslationError(f"d_max must be >= 0, got {self.d_max}")
        if self.d_new_max < 0.0:
            raise TranslationError(
                f"d_new_max must be >= 0, got {self.d_new_max}"
            )
        if not 0.0 <= self.cap_reduction <= 1.0:
            raise TranslationError(
                f"cap_reduction must be in [0, 1], got {self.cap_reduction}"
            )
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise TranslationError(
                f"degraded_fraction must be in [0, 1], "
                f"got {self.degraded_fraction}"
            )
        if self.longest_degraded_run_slots < 0:
            raise TranslationError(
                f"longest_degraded_run_slots must be >= 0, "
                f"got {self.longest_degraded_run_slots}"
            )

    @property
    def max_allocation(self) -> CpuShares:
        """The workload's maximum total allocation (C_peak contribution)."""
        return self.pair.peak_allocation()


class QoSTranslator:
    """Maps application demands onto the pool's two classes of service."""

    def __init__(
        self,
        commitments: PoolCommitments,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.commitments = commitments
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )

    def _translate_into(
        self,
        demand: DemandTrace,
        qos: ApplicationQoS,
        cos1_row: np.ndarray,
        cos2_row: np.ndarray,
    ) -> TranslationResult:
        """Translate one workload, writing its allocations into the rows."""
        theta = self.commitments.theta
        p = breakpoint_fraction(qos.u_low, qos.u_high, theta)

        cap = new_max_demand(demand, qos)
        time_limited: TimeLimitedResult | None = None
        if qos.t_degr_minutes is not None and qos.m_degr_percent > 0:
            max_run_slots = demand.calendar.slots_for_duration(
                qos.t_degr_minutes
            )
            time_limited = enforce_time_limited_degradation(
                demand.values,
                initial_cap=cap,
                breakpoint_fraction=p,
                theta=theta,
                u_low=qos.u_low,
                u_high=qos.u_high,
                max_run_slots=max_run_slots,
            )
            cap = time_limited.d_new_max

        # The rows hold the demand split until it is scaled in place, so
        # the partition is computed once and no whole-length temporary
        # but the utilization is made.
        values = demand.values
        cos1_demand, cos2_demand = partition_demand(
            values, cap, p * cap, out=(cos1_row, cos2_row)
        )
        utilization = split_utilization(
            values, cos1_demand, cos2_demand, theta, qos.u_low
        )
        burst_factor = qos.acceptable.burst_factor
        pair = CoSAllocationPair(
            demand.name,
            AllocationTrace(
                f"{demand.name}.cos1",
                np.multiply(cos1_demand, burst_factor, out=cos1_row),
                demand.calendar,
                demand.attribute,
            ),
            AllocationTrace(
                f"{demand.name}.cos2",
                np.multiply(cos2_demand, burst_factor, out=cos2_row),
                demand.calendar,
                demand.attribute,
            ),
        )

        degraded_mask = degraded_slots(values, utilization, qos.u_high)
        degraded_fraction = (
            float(np.count_nonzero(degraded_mask)) / len(demand)
            if len(demand)
            else 0.0
        )
        self._check_degradation_budget(demand, qos, utilization, degraded_fraction)

        return TranslationResult(
            pair=pair,
            breakpoint=p,
            d_max=demand.peak(),
            d_new_max=cap,
            cap_reduction=realized_cap_reduction(demand, cap),
            degraded_fraction=degraded_fraction,
            longest_degraded_run_slots=longest_run_above(degraded_mask, 0.5),
            time_limited=time_limited,
        )

    def translate(
        self, demand: DemandTrace, qos: ApplicationQoS
    ) -> TranslationResult:
        """Translate one workload's demand trace under one QoS mode."""
        return self.translate_items([(demand, qos)])[0]

    def translate_items(
        self, items: Sequence[tuple[DemandTrace, ApplicationQoS]]
    ) -> list[TranslationResult]:
        """Translate ``(demand, qos)`` pairs in order, in this process.

        Every translation routes through here, so the ``translation``
        stage timing and the ``translation.workloads`` count cover all
        of them. The items must share one calendar: item ``i``'s CoS1
        and CoS2 allocations are written into row ``i`` of one ``(n, T)``
        matrix per class, and each :class:`AllocationTrace` is a
        read-only view of its row. The matrices are read-only once
        filled, so :func:`~repro.traces.allocation.allocation_matrices`
        hands them to a placement evaluator of the same pairs, in the
        same order, without a copy.
        """
        with self.instrumentation.stage("translation"):
            results: list[TranslationResult] = []
            if items:
                calendar = items[0][0].calendar
                for demand, _ in items:
                    if not calendar.compatible_with(demand.calendar):
                        raise TranslationError(
                            f"workload {demand.name!r} is on calendar "
                            f"{demand.calendar}, not {calendar}: workloads "
                            f"translated together must share one calendar"
                        )
                shape = (len(items), calendar.n_observations)
                cos1, cos2 = np.empty(shape), np.empty(shape)
                results = [
                    self._translate_into(demand, qos, cos1[row], cos2[row])
                    for row, (demand, qos) in enumerate(items)
                ]
                cos1.flags.writeable = False
                cos2.flags.writeable = False
        self.instrumentation.count("translation.workloads", len(items))
        return results

    def translate_many(
        self,
        demands: Sequence[DemandTrace],
        qos_by_name: Mapping[str, ApplicationQoS] | ApplicationQoS,
    ) -> dict[str, TranslationResult]:
        """Translate an ensemble; accepts one shared QoS or a per-name map."""
        items: list[tuple[DemandTrace, ApplicationQoS]] = []
        seen: set[str] = set()
        for demand in demands:
            if isinstance(qos_by_name, ApplicationQoS):
                qos = qos_by_name
            else:
                try:
                    qos = qos_by_name[demand.name]
                except KeyError:
                    raise TranslationError(
                        f"no QoS requirement given for workload {demand.name!r}"
                    ) from None
            if demand.name in seen:
                raise TranslationError(
                    f"duplicate workload name {demand.name!r}"
                )
            seen.add(demand.name)
            items.append((demand, qos))
        results = self.translate_items(items)
        return {
            demand.name: result
            for (demand, _), result in zip(items, results)
        }

    def _check_degradation_budget(
        self,
        demand: DemandTrace,
        qos: ApplicationQoS,
        utilization: np.ndarray,
        degraded_fraction: Fraction01,
    ) -> None:
        """Verify the translation's own guarantees on the input trace.

        By construction the worst-case utilization never exceeds
        ``U_degr`` and the degraded percentage stays within ``M_degr``;
        violations indicate an internal inconsistency and raise rather
        than silently producing an unsound plan.
        """
        tolerance = 1e-9
        budget = qos.m_degr_fraction
        if degraded_fraction > budget + tolerance:
            raise TranslationError(
                f"internal error: workload {demand.name!r} has "
                f"{degraded_fraction:.4%} degraded observations, budget is "
                f"{budget:.4%}"
            )
        ceiling = qos.u_degr if qos.u_degr is not None else qos.u_high
        worst = float(
            np.max(utilization, where=demand.values > 0, initial=-np.inf)
        )
        if worst > ceiling + 1e-6:
            raise TranslationError(
                f"internal error: workload {demand.name!r} worst-case "
                f"utilization {worst:.4f} exceeds ceiling {ceiling}"
            )
