"""R-Opus core: application QoS, pool CoS commitments, QoS translation.

This package implements the paper's primary contribution:

* :mod:`repro.core.qos` — per-application QoS requirement specifications
  for normal and failure modes (Section III);
* :mod:`repro.core.cos` — resource-pool class-of-service commitments
  (Section IV);
* :mod:`repro.core.partition` — the portfolio-style demand split across
  the two classes of service (Section V, step 1);
* :mod:`repro.core.degradation` — the ``M_degr`` percentile relaxation
  and its capacity-reduction bound (Section V, step 2);
* :mod:`repro.core.time_limited` — the ``T_degr`` time-limited
  degradation trace analysis (Section V, step 3);
* :mod:`repro.core.translation` — the end-to-end QoS translation
  producing per-CoS allocation traces;
* :mod:`repro.core.framework` — the :class:`ROpus` facade wiring
  translation, placement and failure planning together.
"""

from repro.core.cos import GUARANTEED_COS, CoSCommitment, PoolCommitments
from repro.core.degradation import (
    max_cap_reduction_bound,
    new_max_demand,
    realized_cap_reduction,
)
from repro.core.framework import CapacityPlan, ROpus
from repro.core.manager import (
    CapacityManager,
    CapacityOutlook,
    RollingPlanReport,
)
from repro.core.partition import breakpoint_fraction, partition_demand
from repro.core.qos import ApplicationQoS, DegradedSpec, QoSPolicy, QoSRange
from repro.core.time_limited import enforce_time_limited_degradation
from repro.core.translation import QoSTranslator, TranslationResult

__all__ = [
    "GUARANTEED_COS",
    "ApplicationQoS",
    "CapacityManager",
    "CapacityOutlook",
    "CapacityPlan",
    "CoSCommitment",
    "DegradedSpec",
    "PoolCommitments",
    "QoSPolicy",
    "QoSRange",
    "QoSTranslator",
    "ROpus",
    "RollingPlanReport",
    "TranslationResult",
    "breakpoint_fraction",
    "enforce_time_limited_degradation",
    "max_cap_reduction_bound",
    "new_max_demand",
    "partition_demand",
    "realized_cap_reduction",
]
