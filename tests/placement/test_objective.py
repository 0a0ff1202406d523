"""Tests for the consolidation objective function."""

import pytest

from repro.exceptions import PlacementError
from repro.placement.objective import server_score, utilization_value
from repro.resources.server import ServerSpec


class TestUtilizationValue:
    def test_formula(self):
        assert utilization_value(0.5, 1) == pytest.approx(0.25)
        assert utilization_value(0.5, 2) == pytest.approx(0.5**4)

    def test_full_utilization_scores_one(self):
        assert utilization_value(1.0, 16) == 1.0

    def test_zero_utilization(self):
        assert utilization_value(0.0, 4) == 0.0

    def test_more_cpus_penalise_low_utilization(self):
        """Servers with more CPUs must be hotter to score the same."""
        assert utilization_value(0.8, 16) < utilization_value(0.8, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(PlacementError):
            utilization_value(1.5, 4)
        with pytest.raises(PlacementError):
            utilization_value(0.5, 0)


class TestServerScore:
    def test_unused_server_scores_one(self):
        assert server_score(ServerSpec("s", 16), 0, None) == 1.0

    def test_feasible_server_scores_f_of_u(self):
        server = ServerSpec("s", 2)
        assert server_score(server, 3, 1.0) == pytest.approx((1.0 / 2.0) ** 4)

    def test_overbooked_server_scores_minus_n(self):
        server = ServerSpec("s", 16)
        assert server_score(server, 5, 20.0) == -5.0
        assert server_score(server, 5, None) == -5.0
        assert server_score(server, 5, float("inf")) == -5.0
        assert server_score(server, 5, float("nan")) == -5.0

    def test_rejects_negative_count(self):
        with pytest.raises(PlacementError):
            server_score(ServerSpec("s", 16), -1, 1.0)


def assignment_score(servers, counts, required):
    return sum(map(server_score, servers, counts, required))


class TestAssignmentScore:
    """An assignment scores the sum of its servers' scores."""

    def test_sum_of_contributions(self):
        servers = [ServerSpec("a", 1), ServerSpec("b", 1)]
        score = assignment_score(servers, [0, 2], [None, 0.5])
        assert score == pytest.approx(1.0 + 0.25)

    def test_consolidation_preference(self):
        """Packing everything on one hot server beats spreading out."""
        servers = [ServerSpec("a", 1), ServerSpec("b", 1)]
        spread = assignment_score(servers, [1, 1], [0.4, 0.4])
        packed = assignment_score(servers, [2, 0], [0.8, None])
        assert packed > spread
