"""Plain-text rendering of metric tables."""

from __future__ import annotations

from typing import Sequence

from repro.metrics.capacity import CapacityCase
from repro.util.tables import format_table


def render_capacity_table(
    cases: Sequence[CapacityCase], title: str | None = None
) -> str:
    """Render Table I-style rows: one line per planning case."""
    headers = [
        "case",
        "M_degr %",
        "theta",
        "T_degr",
        "servers",
        "C_requ CPU",
        "C_peak CPU",
        "savings %",
    ]
    rows = [
        [
            case.label,
            case.m_degr_percent,
            case.theta,
            case.t_degr_label(),
            case.servers_used,
            case.sum_required,
            case.sum_peak_allocations,
            100.0 * case.sharing_savings,
        ]
        for case in cases
    ]
    return format_table(headers, rows, title=title)

