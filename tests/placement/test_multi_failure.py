"""Tests for multi-node failure planning (the paper's Section III note)."""

import math

import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.exceptions import PlacementError
from repro.placement.consolidation import Consolidator
from repro.placement.failure import FailurePlanner
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.placement.failure_checks import (
    assert_scalar_oracle_agrees,
    assert_stays_put,
    feasible_labels,
    repair_never_finds_a_home,
)

SEARCH = GeneticSearchConfig(
    seed=0, max_generations=8, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def setup():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=17)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.5 + 0.4 * i) for i in range(6)
    ]
    demands = generator.generate_many(specs, calendar)
    translator = QoSTranslator(PoolCommitments.of(theta=0.9))
    policy = QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3),
    )
    pool = ResourcePool(homogeneous_servers(8, cpus=16))
    pairs = [translator.translate(d, policy.normal).pair for d in demands]
    normal = Consolidator(
        pool, translator.commitments.cos2, config=SEARCH
    ).consolidate(pairs)
    planner = FailurePlanner(translator, config=SEARCH)
    return demands, policy, pool, normal, planner


class TestPlanMulti:
    def test_case_count_is_combinations(self, setup):
        demands, policy, pool, normal, planner = setup
        if normal.servers_used < 2:
            pytest.skip("needs at least two used servers")
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="server:2"
        )
        assert len(report.cases) == math.comb(normal.servers_used, 2)

    def test_labels_and_affected(self, setup):
        demands, policy, pool, normal, planner = setup
        if normal.servers_used < 2:
            pytest.skip("needs at least two used servers")
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="server:2"
        )
        for case in report.cases:
            servers = case.failed_servers
            assert len(servers) == 2
            expected_affected = {
                name
                for server in servers
                for name in normal.assignment[server]
            }
            assert set(case.affected_workloads) == expected_affected
            if case.result is not None:
                for server in servers:
                    assert server not in case.result.assignment

    def test_single_failure_special_case_matches_plan(self, setup):
        demands, policy, pool, normal, planner = setup
        single = planner.plan(demands, policy, pool, normal)
        multi = planner.plan_scope(
            demands, policy, pool, normal, scope="server:1"
        )
        assert {case.label for case in single.cases} == {
            case.label for case in multi.cases
        }

    def test_rejects_bad_counts(self, setup):
        demands, policy, pool, normal, planner = setup
        with pytest.raises(PlacementError):
            planner.plan_scope(
                demands, policy, pool, normal, scope="server:0"
            )
        with pytest.raises(PlacementError):
            planner.plan_scope(
                demands,
                policy,
                pool,
                normal,
                scope=f"server:{normal.servers_used + 1}",
            )

    def test_double_failure_harder_than_single(self, setup):
        """Double failures can only be infeasible-or-equal relative to
        single ones in terms of surviving-server counts."""
        demands, policy, pool, normal, planner = setup
        if normal.servers_used < 2:
            pytest.skip("needs at least two used servers")
        double = planner.plan_scope(
            demands, policy, pool, normal, scope="server:2"
        )
        for case in double.cases:
            if case.result is not None:
                # 2 of 8 servers are gone.
                assert case.servers_used <= 6


class TestRepairFirstMulti:
    @pytest.mark.parametrize("relax_all", [False, True])
    def test_double_failures_move_only_the_displaced(self, setup, relax_all):
        demands, policy, pool, normal, planner = setup
        if normal.servers_used < 2:
            pytest.skip("needs at least two used servers")
        report = planner.plan_scope(
            demands, policy, pool, normal,
            scope="server:2", relax_all=relax_all,
        )
        assert report.repaired > 0
        for case in report.cases:
            if case.result is None:
                continue
            if case.repaired:
                assert_stays_put(case, normal)
                assert set(case.moved_from(normal)) == set(
                    case.affected_workloads
                )
            assert_scalar_oracle_agrees(
                case, demands, policy, pool, planner.translator,
                relax_all=relax_all,
            )

    def test_repair_first_covers_whatever_the_full_search_covers(
        self, setup, monkeypatch
    ):
        demands, policy, pool, normal, planner = setup
        if normal.servers_used < 2:
            pytest.skip("needs at least two used servers")
        repair_first = planner.plan_scope(
            demands, policy, pool, normal, scope="server:2"
        )
        repair_never_finds_a_home(monkeypatch)
        full_search = FailurePlanner(
            planner.translator, config=SEARCH
        ).plan_scope(demands, policy, pool, normal, scope="server:2")
        assert full_search.repaired == 0
        assert feasible_labels(repair_first) >= feasible_labels(full_search)
