"""The ``T_degr`` time-limited degradation analysis (Section V, step 3).

Percentile capping alone allows degraded observations to cluster: a
30-minute stretch of poor responsiveness annoys users even when the
overall degraded percentage is tiny. The paper therefore bounds the
*contiguous* degraded time by ``T_degr`` and enforces it with an
iterative trace analysis:

1. classify every observation as acceptable or degraded under the current
   demand cap ``D_new_max`` (using the worst-case granted allocation,
   formula 8);
2. find a run of more than ``R`` contiguous degraded observations
   (``R`` observations fit in ``T_degr`` minutes);
3. "break" the run by promoting its cheapest observation — the one with
   the smallest demand ``D_min_degr`` — to acceptable performance, which
   means raising ``D_new_max`` per formula 10::

       D_new_max = D_min_degr * U_low / (U_high * (p * (1 - theta) + theta))

   (with ``p`` from formula 1 this simplifies to ``D_min_degr`` when
   ``p > 0``, and to formula 11 when ``p = 0``);
4. repeat until no run exceeds ``R``.

Each step strictly raises the cap and permanently promotes at least one
observation, so the loop terminates in at most one iteration per
observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import partition_demand, worst_case_granted_allocation
from repro.exceptions import TranslationError
from repro.traces.ops import contiguous_runs_above, longest_run_above

# Absolute tolerance when classifying an observation as degraded: demand
# exactly at the cap computes utilization == U_high up to rounding, and
# must not be counted as degraded.
DEGRADED_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TimeLimitedResult:
    """Outcome of the iterative ``T_degr`` enforcement.

    Attributes
    ----------
    d_new_max:
        The final demand cap; >= the input cap.
    iterations:
        Number of run-breaking steps performed (0 when the input cap
        already satisfied the constraint).
    longest_degraded_run:
        Longest remaining contiguous degraded run, in slots.
    degraded_fraction:
        Fraction of observations still degraded under the final cap.
    """

    d_new_max: float
    iterations: int
    longest_degraded_run: int
    degraded_fraction: float


def expected_utilization(
    demand_values: np.ndarray,
    demand_cap: float,
    breakpoint_fraction: float,
    theta: float,
    u_low: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Worst-case-model utilization of allocation per observation.

    Demand is capped and partitioned; CoS1 is fully granted, CoS2 at
    exactly ``theta``; utilization is the *raw* demand divided by the
    granted allocation. Zero-demand slots report utilization 0.
    ``out``, when given, is the pair of rows the partition is written
    into; the utilization is returned in its second row.
    """
    values = np.asarray(demand_values, dtype=float)
    if not 0.0 <= breakpoint_fraction <= 1.0:
        raise TranslationError(
            f"breakpoint fraction must be in [0, 1], got {breakpoint_fraction}"
        )
    cos1, cos2 = partition_demand(
        values, demand_cap, breakpoint_fraction * demand_cap, out=out
    )
    return split_utilization(values, cos1, cos2, theta, u_low, out=cos2)


def split_utilization(
    values: np.ndarray,
    cos1_demand: np.ndarray,
    cos2_demand: np.ndarray,
    theta: float,
    u_low: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`expected_utilization` of a demand already partitioned.

    The floats are the same: the granted allocation (formula 8), then
    the demand divided by it where it is positive, 0 where it is not and
    infinity where positive demand gets nothing (starved). ``out``, when
    given, receives the result; it may be ``cos2_demand`` itself.
    """
    utilization = worst_case_granted_allocation(
        cos1_demand, cos2_demand, theta, u_low, out=out
    )
    positive = utilization > 0
    np.divide(values, utilization, out=utilization, where=positive)
    idle = np.logical_not(positive, out=positive)
    np.copyto(utilization, 0.0, where=idle)
    starved = np.logical_and(idle, values > 0, out=idle)
    np.copyto(utilization, np.inf, where=starved)
    return utilization


def degraded_slots(
    values: np.ndarray, utilization: np.ndarray, u_high: float
) -> np.ndarray:
    """Observations degraded under the worst-case model, as a mask.

    Utilization above ``U_high`` (by more than
    :data:`DEGRADED_TOLERANCE`) with positive demand.
    """
    mask = np.greater(utilization, u_high + DEGRADED_TOLERANCE)
    mask &= values > 0
    return mask


def enforce_time_limited_degradation(
    demand_values: np.ndarray,
    initial_cap: float,
    breakpoint_fraction: float,
    theta: float,
    u_low: float,
    u_high: float,
    max_run_slots: int,
) -> TimeLimitedResult:
    """Raise ``D_new_max`` until no degraded run exceeds ``max_run_slots``.

    Parameters
    ----------
    demand_values:
        The workload's raw demand observations.
    initial_cap:
        ``D_new_max`` from the ``M_degr`` relaxation (formulas 2-3).
    breakpoint_fraction:
        ``p`` from formula 1 (held fixed throughout, as in the paper).
    theta, u_low, u_high:
        CoS2 access probability and the acceptable utilization band.
    max_run_slots:
        ``R``: the number of observations fitting in ``T_degr`` minutes.
        Runs of *more than* ``R`` degraded observations violate the
        constraint.
    """
    values = np.asarray(demand_values, dtype=float)
    if initial_cap < 0:
        raise TranslationError(f"initial cap must be >= 0, got {initial_cap}")
    if max_run_slots < 0:
        raise TranslationError(
            f"max_run_slots must be >= 0, got {max_run_slots}"
        )
    if not 0 < u_low <= u_high:
        raise TranslationError(
            f"need 0 < U_low <= U_high, got U_low={u_low}, U_high={u_high}"
        )
    if not 0 < theta <= 1:
        raise TranslationError(f"theta must be in (0, 1], got {theta}")

    cap = float(initial_cap)
    iterations = 0
    promotion_factor = u_low / (
        u_high * (breakpoint_fraction * (1.0 - theta) + theta)
    )
    max_iterations = values.shape[0] + 1
    # Every iteration partitions into the same two rows: the previous
    # utilization is dead once the cap moves.
    scratch = (np.empty_like(values), np.empty_like(values))

    while True:
        utilization = expected_utilization(
            values, cap, breakpoint_fraction, theta, u_low, out=scratch
        )
        violating_min = _min_demand_in_violating_run(
            values, utilization, u_high, max_run_slots
        )
        if violating_min is None:
            break
        new_cap = violating_min * promotion_factor
        if new_cap <= cap:
            # The promoted observation's utilization would not change;
            # only possible through floating-point degeneracy. Nudge the
            # cap so the loop provably terminates.
            new_cap = np.nextafter(cap, np.inf)
        cap = new_cap
        iterations += 1
        if iterations > max_iterations:
            raise TranslationError(
                "T_degr enforcement failed to converge; demand trace or "
                "parameters are degenerate"
            )

    # The loop left when the utilization at the final cap had no
    # over-length run, so it is the final utilization.
    degraded_mask = degraded_slots(values, utilization, u_high)
    return TimeLimitedResult(
        d_new_max=cap,
        iterations=iterations,
        longest_degraded_run=longest_run_above(degraded_mask, 0.5),
        degraded_fraction=(
            float(np.count_nonzero(degraded_mask)) / values.shape[0]
            if values.shape[0]
            else 0.0
        ),
    )


def _min_demand_in_violating_run(
    values: np.ndarray,
    utilization: np.ndarray,
    u_high: float,
    max_run_slots: int,
) -> float | None:
    """``D_min_degr`` of the first over-length degraded run, if any."""
    degraded = degraded_slots(values, utilization, u_high)
    for run in contiguous_runs_above(degraded, 0.5):
        if run.length > max_run_slots:
            return float(values[run.start : run.stop].min())
    return None
