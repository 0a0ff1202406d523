"""Tests for capacity summaries and report rendering."""

import pytest

from repro.metrics.capacity import CapacityCase, capacity_case
from repro.metrics.report import render_capacity_table
from repro.placement.consolidation import ConsolidationResult


def make_result(servers=2, required=20.0, peak=40.0):
    per_server = required / servers
    return ConsolidationResult(
        assignment={f"s{i}": (f"w{i}",) for i in range(servers)},
        required_by_server={f"s{i}": per_server for i in range(servers)},
        sum_required=required,
        sum_peak_allocations=peak,
        score=1.0,
        algorithm="first_fit",
    )


class TestCapacityCase:
    def test_from_result(self):
        case = capacity_case("case 1", 3.0, 0.95, 30.0, make_result())
        assert case.servers_used == 2
        assert case.sum_required == 20.0
        assert case.sharing_savings == pytest.approx(0.5)

    def test_t_degr_label(self):
        assert capacity_case("c", 0, 0.6, None, make_result()).t_degr_label() == "none"
        assert (
            capacity_case("c", 3, 0.6, 30.0, make_result()).t_degr_label()
            == "30 min"
        )

    def test_zero_peak_savings(self):
        case = CapacityCase("c", 0, 0.6, None, 1, 0.0, 0.0)
        assert case.sharing_savings == 0.0


class TestRendering:
    def test_capacity_table_contains_rows(self):
        cases = [
            capacity_case("1", 0.0, 0.6, None, make_result()),
            capacity_case("2", 3.0, 0.95, 30.0, make_result(servers=1)),
        ]
        table = render_capacity_table(cases, title="Table I")
        assert "Table I" in table
        assert "C_requ CPU" in table
        assert "30 min" in table
        assert table.count("\n") >= 4
