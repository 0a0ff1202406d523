"""Measurement and compliance metrics.

* :mod:`repro.metrics.access` — the resource access probability theta,
  measured exactly as Section IV defines it;
* :mod:`repro.metrics.compliance` — per-application QoS compliance
  checks (acceptable band, ``M_degr`` budget, ``T_degr`` run length);
* :mod:`repro.metrics.capacity` — capacity economics summaries (the
  Table I columns);
* :mod:`repro.metrics.report` — plain-text report rendering.
"""

from repro.metrics.access import measure_theta, theta_by_slot
from repro.metrics.capacity import CapacityCase, capacity_case
from repro.metrics.compliance import ComplianceReport, check_compliance
from repro.metrics.report import render_capacity_table

__all__ = [
    "CapacityCase",
    "ComplianceReport",
    "capacity_case",
    "check_compliance",
    "measure_theta",
    "render_capacity_table",
    "theta_by_slot",
]
