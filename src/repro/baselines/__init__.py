"""Baseline capacity-management strategies from the paper's related work.

* :mod:`repro.baselines.percentile_cap` — cap each workload at a demand
  percentile (Urgaonkar et al., OSDI 2002), with no control over how
  long degradation persists;
* :mod:`repro.baselines.single_cos` — place all demand in the
  guaranteed class, forgoing statistical multiplexing entirely.
"""

from repro.baselines.percentile_cap import degraded_run_profile
from repro.baselines.single_cos import single_cos_pair

__all__ = [
    "degraded_run_profile",
    "single_cos_pair",
]
