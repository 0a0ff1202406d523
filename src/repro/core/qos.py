"""Application QoS requirement specifications (Section III).

An application owner expresses QoS as a *utilization of allocation* band:

* ``U_low`` — utilization supporting ideal performance; its reciprocal is
  the burst factor used to size allocations;
* ``U_high`` — the threshold beyond which performance is undesirable;
* ``U_degr`` — a ceiling for tolerated, infrequent degradation;
* ``M_degr`` — the percentage of measurements allowed in the degraded
  band ``(U_high, U_degr]``;
* ``T_degr`` — the maximum *contiguous* time degraded performance may
  persist (sustained poor performance drives user complaints even when
  the overall percentage is small).

Requirements are given independently for normal operation and for the
failure mode where one server in the pool is down
(:class:`QoSPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import QoSSpecificationError
from repro.units import Fraction01, Percent


@dataclass(frozen=True)
class QoSRange:
    """The acceptable utilization-of-allocation band ``[U_low, U_high]``.

    >>> QoSRange(0.5, 0.66).burst_factor
    2.0
    """

    u_low: Fraction01
    u_high: Fraction01

    def __post_init__(self) -> None:
        if not 0.0 < self.u_low <= 1.0:
            raise QoSSpecificationError(
                f"U_low must be in (0, 1], got {self.u_low}"
            )
        if not 0.0 < self.u_high <= 1.0:
            raise QoSSpecificationError(
                f"U_high must be in (0, 1], got {self.u_high}"
            )
        if self.u_low > self.u_high:
            raise QoSSpecificationError(
                f"U_low ({self.u_low}) must not exceed U_high ({self.u_high})"
            )

    @property
    def burst_factor(self) -> float:
        """``1 / U_low``: the multiplier sizing ideal allocations."""
        return 1.0 / self.u_low

    def contains(self, utilization: Fraction01) -> bool:
        """True when a measured utilization lies in the acceptable band.

        Utilizations *below* ``U_low`` also support ideal performance
        (at the price of over-allocation), so only the upper bound
        disqualifies.
        """
        return utilization <= self.u_high


@dataclass(frozen=True)
class DegradedSpec:
    """Tolerated degraded performance beyond the acceptable band.

    Parameters
    ----------
    m_degr_percent:
        ``M_degr = 100 - M``: at most this percentage of measurements may
        have utilization of allocation in ``(U_high, U_degr]``.
    u_degr:
        Ceiling on utilization during degradation; must be < 1 so demands
        are still satisfied within their measurement interval.
    t_degr_minutes:
        Optional limit on *contiguous* degraded time. ``None`` means no
        time-contiguity constraint.
    """

    m_degr_percent: Percent
    u_degr: Fraction01
    t_degr_minutes: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.m_degr_percent < 100.0:
            raise QoSSpecificationError(
                f"M_degr must be in [0, 100), got {self.m_degr_percent}"
            )
        if not 0.0 < self.u_degr < 1.0:
            raise QoSSpecificationError(
                f"U_degr must be in (0, 1), got {self.u_degr}"
            )
        if self.t_degr_minutes is not None and self.t_degr_minutes <= 0:
            raise QoSSpecificationError(
                f"T_degr must be > 0 minutes when given, got {self.t_degr_minutes}"
            )

    @property
    def compliance_percent(self) -> Percent:
        """``M``: the percentage of measurements that must be acceptable."""
        return 100.0 - self.m_degr_percent

    @property
    def compliance_fraction(self) -> Fraction01:
        """``M`` as a fraction in [0, 1] — the form budget math consumes."""
        return (100.0 - self.m_degr_percent) / 100.0

    @property
    def m_degr_fraction(self) -> Fraction01:
        """``M_degr`` as a fraction in [0, 1] (``m_degr_percent / 100``)."""
        return self.m_degr_percent / 100.0


@dataclass(frozen=True)
class ApplicationQoS:
    """One mode's complete QoS requirement: acceptable band + degradation.

    ``degraded=None`` means no degradation is tolerated: every
    observation must meet the acceptable band (``M_degr = 0``).
    """

    acceptable: QoSRange
    degraded: Optional[DegradedSpec] = None

    def __post_init__(self) -> None:
        if self.degraded is not None and self.degraded.u_degr < self.acceptable.u_high:
            raise QoSSpecificationError(
                f"U_degr ({self.degraded.u_degr}) must be >= U_high "
                f"({self.acceptable.u_high})"
            )

    @property
    def u_low(self) -> Fraction01:
        return self.acceptable.u_low

    @property
    def u_high(self) -> Fraction01:
        return self.acceptable.u_high

    @property
    def u_degr(self) -> Optional[Fraction01]:
        return self.degraded.u_degr if self.degraded is not None else None

    @property
    def m_degr_percent(self) -> Percent:
        return self.degraded.m_degr_percent if self.degraded is not None else 0.0

    @property
    def m_degr_fraction(self) -> Fraction01:
        """``M_degr`` as a fraction in [0, 1]: the degraded-budget form.

        Budget comparisons against measured fractions must use this
        (or an explicit ``/ 100.0``), never the raw percentage.
        """
        return self.m_degr_percent / 100.0

    @property
    def t_degr_minutes(self) -> Optional[float]:
        return self.degraded.t_degr_minutes if self.degraded is not None else None

    def with_degraded(self, degraded: Optional[DegradedSpec]) -> "ApplicationQoS":
        return ApplicationQoS(self.acceptable, degraded)


@dataclass(frozen=True)
class QoSPolicy:
    """Normal-mode and failure-mode requirements for one application.

    ``failure=None`` means the application must keep its normal-mode QoS
    even when a server has failed (the most demanding policy, typically
    forcing a spare server).
    """

    normal: ApplicationQoS
    failure: Optional[ApplicationQoS] = None

    def mode(self, failure_mode: bool) -> ApplicationQoS:
        """The requirement in force for the requested operating mode."""
        if failure_mode and self.failure is not None:
            return self.failure
        return self.normal


def case_study_qos(
    m_degr_percent: Percent = 3.0,
    t_degr_minutes: Optional[float] = None,
    u_low: Fraction01 = 0.5,
    u_high: Fraction01 = 0.66,
    u_degr: Fraction01 = 0.9,
) -> ApplicationQoS:
    """The paper's case-study requirement with configurable relaxations.

    Defaults reproduce Section VII: acceptable utilization in
    ``(0.5, 0.66)`` for 97% of measurements, degraded utilization at most
    0.9 for the rest. ``m_degr_percent=0`` yields the strict variant used
    by Table I cases 1 and 4.
    """
    degraded = None
    if m_degr_percent > 0:
        degraded = DegradedSpec(
            m_degr_percent=m_degr_percent,
            u_degr=u_degr,
            t_degr_minutes=t_degr_minutes,
        )
    return ApplicationQoS(QoSRange(u_low, u_high), degraded)
