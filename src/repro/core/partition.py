"""Portfolio-style demand partitioning across two CoS (Section V, step 1).

The breakpoint fraction ``p`` divides an application's demand between the
guaranteed class CoS1 and the multiplexed class CoS2 so that, even when
CoS2 delivers only its committed access probability ``theta``, the
application's utilization of allocation stays within ``[U_low, U_high]``.

Derivation (formula 1 of the paper): the ideal allocation is
``A_ideal = D_max / U_low`` and the worst acceptable allocation is
``A_ok = D_max / U_high``. Requiring the worst-case granted allocation
``A_ideal * p + A_ideal * (1 - p) * theta`` to equal ``A_ok`` yields::

    p = (U_low / U_high - theta) / (1 - theta)

with ``p = 0`` whenever ``U_low / U_high <= theta`` (CoS2 alone is
reliable enough) and ``p = 1`` when ``theta -> 1`` is approached from a
ratio above it (degenerate; handled by the theta == 1 branch).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import PartitionError
from repro.units import CpuShares, Fraction01, Probability
from repro.util.floats import isclose
from repro.util.validation import require_fraction, require_positive


def breakpoint_fraction(
    u_low: Fraction01, u_high: Fraction01, theta: Probability
) -> Fraction01:
    """Formula 1: the fraction ``p`` of peak demand assigned to CoS1.

    ``theta`` is accepted on the **closed** interval ``(0, 1]``: a pool
    may commit ``theta = 1.0`` (CoS2 as reliable as CoS1), and because
    the formula's ``1 - theta`` divisor is singular there, any theta
    within ``METRIC_ATOL`` of 1 short-circuits to ``p = 0`` *before*
    the division (``ratio = U_low / U_high <= 1 ~= theta``, so CoS2
    alone suffices). ``theta = 0.0`` is rejected: a class of service
    that never grants access cannot carry demand.

    >>> round(breakpoint_fraction(0.5, 0.66, 0.6), 4)
    0.3939
    >>> breakpoint_fraction(0.5, 0.66, 0.8)
    0.0
    """
    u_low = require_positive(u_low, "u_low")
    u_high = require_positive(u_high, "u_high")
    if u_low > u_high:
        raise PartitionError(f"U_low ({u_low}) must not exceed U_high ({u_high})")
    if not 0.0 < theta <= 1.0:
        raise PartitionError(f"theta must be in (0, 1], got {theta}")
    ratio = u_low / u_high
    if ratio <= theta:
        # CoS2's access probability alone keeps utilization acceptable.
        return 0.0
    if isclose(theta, 1.0):
        # ratio > theta is (numerically) impossible at theta ~= 1
        # (ratio <= 1); guarding here also keeps the 1 - theta divisor
        # below from blowing up on a theta within rounding of 1.
        return 0.0
    p = (ratio - theta) / (1.0 - theta)
    # Clamp tiny floating-point excursions.
    return float(min(1.0, max(0.0, p)))


def partition_demand(
    demand_values: np.ndarray,
    demand_cap: CpuShares,
    breakpoint_demand: CpuShares,
    out: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a demand series across CoS1 and CoS2.

    Parameters
    ----------
    demand_values:
        Raw demand observations.
    demand_cap:
        ``D_new_max``: the cap limiting the maximum allocation (peak
        demand, possibly reduced by the ``M_degr`` relaxation or raised
        back by the ``T_degr`` analysis). Demand above the cap receives
        the cap's allocation — that is what produces controlled
        degradation.
    breakpoint_demand:
        ``p x D_new_max``: demand up to this value rides in CoS1.

    out:
        Two arrays of the demand's length to write ``(cos1, cos2)``
        into; fresh arrays when omitted.

    Returns ``(cos1, cos2)`` arrays with ``cos1 + cos2 ==
    min(demand, demand_cap)`` element-wise.

    >>> import numpy as np
    >>> cos1, cos2 = partition_demand(np.array([1.0, 4.0, 10.0]), 8.0, 3.0)
    >>> cos1.tolist(), cos2.tolist()
    ([1.0, 3.0, 3.0], [0.0, 1.0, 5.0])
    """
    values = np.asarray(demand_values, dtype=float)
    if values.ndim != 1:
        raise PartitionError(f"demand must be 1-D, got shape {values.shape}")
    if demand_cap < 0:
        raise PartitionError(f"demand_cap must be >= 0, got {demand_cap}")
    if not 0.0 <= breakpoint_demand <= demand_cap + 1e-12:
        raise PartitionError(
            f"breakpoint demand ({breakpoint_demand}) must be in "
            f"[0, demand_cap={demand_cap}]"
        )
    cos1, cos2 = (None, None) if out is None else out
    capped = np.minimum(values, demand_cap, out=cos2)
    cos1 = np.minimum(capped, breakpoint_demand, out=cos1)
    return cos1, np.subtract(capped, cos1, out=capped)


def worst_case_granted_allocation(
    cos1_demand: np.ndarray,
    cos2_demand: np.ndarray,
    theta: Probability,
    u_low: Fraction01,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Expected allocation granted when CoS2 delivers exactly ``theta``.

    CoS1 demand is always granted; CoS2 demand is granted with
    probability ``theta``; the burst factor ``1 / U_low`` converts demand
    to allocation. This is the quantity the degraded-performance
    classification in the ``T_degr`` analysis is computed against
    (formula 8 of the paper). ``out``, when given, receives the result;
    it may be ``cos2_demand`` itself, not ``cos1_demand``.
    """
    theta = 1.0 if isclose(theta, 1.0) else require_fraction(theta, "theta")
    u_low = require_positive(u_low, "u_low")
    cos1 = np.asarray(cos1_demand, dtype=float)
    cos2 = np.asarray(cos2_demand, dtype=float)
    allocation = np.multiply(cos2, theta, out=out)
    np.add(cos1, allocation, out=allocation)
    return np.divide(allocation, u_low, out=allocation)
