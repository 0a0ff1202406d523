"""The ``M_degr`` percentile relaxation (Section V, step 2).

Allowing ``M_degr`` percent of measurements to run degraded (utilization
in ``(U_high, U_degr]``) lets the maximum allocation be sized from the
``M``-th percentile of demand instead of the peak — usually a large
saving for bursty workloads. Two conditions compete:

* acceptable performance needs a maximum allocation of at least
  ``A_ok = D_M% / U_high`` (formula 2's precondition);
* degraded performance needs at least ``A_degr = D_max / U_degr``
  (demand at the peak must still see utilization <= ``U_degr``).

The effective demand cap ``D_new_max`` is whichever is larger (formulas
2-3), and the saving is bounded by formula 5:
``MaxCapReduction <= 1 - U_high / U_degr`` independent of the workload.
"""

from __future__ import annotations

from repro.core.qos import ApplicationQoS
from repro.exceptions import QoSSpecificationError
from repro.traces.trace import DemandTrace


def new_max_demand(demand: DemandTrace, qos: ApplicationQoS) -> float:
    """``D_new_max``: the demand cap implied by the M_degr relaxation.

    Without a degraded spec (``M_degr = 0``) the cap is simply the peak
    demand ``D_max``. With one, formulas 2-3 of the paper apply:

    * if ``A_ok >= A_degr``, the ``M``-th percentile demand already
      provides enough allocation for the degraded tail:
      ``D_new_max = D_M%``;
    * otherwise the degraded ceiling binds:
      ``D_new_max = D_max * U_high / U_degr``.
    """
    d_max = demand.peak()
    if qos.degraded is None or qos.degraded.m_degr_percent == 0:
        return d_max
    spec = qos.degraded
    # "higher" guarantees at most M_degr percent of observations lie
    # strictly above the returned value, so the degraded budget holds
    # exactly (linear interpolation can leave a hair more above the cap).
    d_m_percentile = demand.percentile(spec.compliance_percent, method="higher")
    a_ok = d_m_percentile / qos.u_high
    a_degr = d_max / spec.u_degr
    if a_ok >= a_degr:
        return d_m_percentile
    return d_max * qos.u_high / spec.u_degr


def max_cap_reduction_bound(u_high: float, u_degr: float) -> float:
    """Formula 5: the workload-independent bound on capacity reduction.

    >>> round(max_cap_reduction_bound(0.66, 0.9), 4)
    0.2667
    """
    if not 0 < u_high <= u_degr:
        raise QoSSpecificationError(
            f"need 0 < U_high <= U_degr, got U_high={u_high}, U_degr={u_degr}"
        )
    if u_degr >= 1.0:
        raise QoSSpecificationError(f"U_degr must be < 1, got {u_degr}")
    return 1.0 - u_high / u_degr


def realized_cap_reduction(demand: DemandTrace, d_new_max: float) -> float:
    """Formula 4: the reduction actually achieved for one workload.

    ``(D_max - D_new_max) / D_max``; clamped at 0 when the ``T_degr``
    analysis pushed the cap back above the raw peak. Returns 0 for an
    all-zero trace.
    """
    d_max = demand.peak()
    if d_max == 0:
        return 0.0
    if d_new_max < 0:
        raise QoSSpecificationError(f"D_new_max must be >= 0, got {d_new_max}")
    return max(0.0, (d_max - d_new_max) / d_max)

