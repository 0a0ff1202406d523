"""Tests for single-failure what-if planning."""

import numpy as np
import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.exceptions import ConfigurationError, PlacementError
from repro.engine import (
    ExecutionEngine,
    FaultPlan,
    ResilienceConfig,
)
from repro.placement.consolidation import Consolidator, build_result
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.failure import FailurePlanner
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import ServerSpec, homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.placement.failure_checks import (
    assert_scalar_oracle_agrees,
    assert_stays_put,
    case_view,
    feasible_labels,
    repair_never_finds_a_home,
)

SEARCH_CONFIG = GeneticSearchConfig(
    seed=0, max_generations=10, stall_generations=3, population_size=10
)


def _no_sleep(_delay):
    return None


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def seeded_ensemble(seed, cal):
    generator = WorkloadGenerator(seed=seed)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.3 * i, noise_sigma=0.2)
        for i in range(6)
    ]
    return generator.generate_many(specs, cal)


@pytest.fixture
def demands(cal):
    return seeded_ensemble(21, cal)


@pytest.fixture
def translator():
    return QoSTranslator(PoolCommitments.of(theta=0.9))


@pytest.fixture
def policy():
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=None),
    )


def normal_plan(translator, demands, policy, pool):
    pairs = [
        translator.translate(demand, policy.normal).pair for demand in demands
    ]
    consolidator = Consolidator(
        pool, translator.commitments.cos2, config=SEARCH_CONFIG
    )
    return consolidator.consolidate(pairs)


class TestFailurePlanning:
    def test_absorbable_failures(self, demands, translator, policy):
        """A generously sized pool absorbs any single failure."""
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        assert len(report.cases) == normal.servers_used
        assert report.all_supported
        assert not report.spare_server_needed

    def test_case_lookup(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        some_server = next(iter(normal.assignment))
        case = report.case_for(some_server)
        assert case.failed_servers == (some_server,)
        assert case.label == some_server
        assert set(case.affected_workloads) == set(
            normal.assignment[some_server]
        )
        with pytest.raises(PlacementError):
            report.case_for("ghost")

    def test_failure_case_excludes_failed_server(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        for case in report.cases:
            if case.result is not None:
                for failed in case.failed_servers:
                    assert failed not in case.result.assignment

    def test_spare_needed_when_pool_tight(self, cal, translator):
        """A pool that is exactly full cannot absorb a failure."""
        generator = WorkloadGenerator(seed=5)
        # Workloads that each demand most of one server.
        specs = [
            WorkloadSpec(name=f"big{i}", peak_cpus=5.0, noise_sigma=0.05)
            for i in range(2)
        ]
        demands = generator.generate_many(specs, cal)
        policy = QoSPolicy(normal=case_study_qos(m_degr_percent=0))
        pool = ResourcePool(homogeneous_servers(2, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        if normal.servers_used < 2:
            pytest.skip("workloads consolidated onto one server")
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        assert report.spare_server_needed

    def test_relax_all_toggle(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        relaxed = planner.plan(
            demands, policy, pool, normal, relax_all=True
        )
        assert len(relaxed.cases) == normal.servers_used

    def test_unknown_workloads_rejected(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        with pytest.raises(PlacementError):
            planner.plan(demands[:-1], policy, pool, normal)

    def test_per_workload_policies(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        policies = {demand.name: policy for demand in demands}
        report = planner.plan(demands, policies, pool, normal)
        assert len(report.cases) == normal.servers_used

    def test_missing_policy_rejected(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        with pytest.raises(ConfigurationError, match="no QoS policy"):
            planner.plan(demands, {"w0": policy}, pool, normal)


class TestRepairFirst:
    """The what-if repairs the normal plan; the full search is the fallback."""

    @pytest.mark.parametrize("relax_all", [False, True])
    def test_repaired_cases_move_only_the_displaced(
        self, demands, translator, policy, relax_all
    ):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        engine = ExecutionEngine.serial()
        planner = FailurePlanner(translator, config=SEARCH_CONFIG, engine=engine)
        report = planner.plan(
            demands, policy, pool, normal, relax_all=relax_all
        )
        assert report.repaired == len(report.cases)
        for case in report.cases:
            assert case.result.algorithm == "repair"
            assert case.result.search is None
            assert_stays_put(case, normal)
            assert set(case.moved_from(normal)) == set(case.affected_workloads)
            assert_scalar_oracle_agrees(
                case, demands, policy, pool, translator, relax_all=relax_all
            )
        counters = engine.instrumentation.counters()
        assert counters["failure.repaired"] == len(report.cases)
        assert counters["failure.replanned"] == 0
        assert report.summary()["repaired"] == len(report.cases)
        assert report.summary()["replanned"] == 0

    @pytest.mark.parametrize("seed", [3, 21, 40])
    @pytest.mark.parametrize("cpus", [6, 8])
    def test_repair_first_covers_whatever_the_full_search_covers(
        self, cal, translator, policy, monkeypatch, seed, cpus
    ):
        demands = seeded_ensemble(seed, cal)
        pool = ResourcePool(homogeneous_servers(5, cpus=cpus))
        normal = normal_plan(translator, demands, policy, pool)
        repair_first = FailurePlanner(translator, config=SEARCH_CONFIG).plan(
            demands, policy, pool, normal
        )
        repair_never_finds_a_home(monkeypatch)
        engine = ExecutionEngine.serial()
        full_search = FailurePlanner(
            translator, config=SEARCH_CONFIG, engine=engine
        ).plan(demands, policy, pool, normal)
        # With repair disabled every case is the parent's: the seeded
        # greedy + genetic search over all workloads.
        assert [case.label for case in full_search.cases] == [
            case.label for case in repair_first.cases
        ]
        assert full_search.repaired == 0
        for case in full_search.cases:
            assert case.result is None or case.result.algorithm == "genetic"
        counters = engine.instrumentation.counters()
        assert counters["failure.replanned"] == counters["failure.cases"]
        assert feasible_labels(repair_first) >= feasible_labels(full_search)

    def test_one_planner_serves_two_ensembles(self, cal, translator, policy):
        """Same workload names, different traces: the planner's scratch
        must not answer the second ensemble from the first one's memos."""
        pool = ResourcePool(homogeneous_servers(6, cpus=8))
        shared = FailurePlanner(translator, config=SEARCH_CONFIG)
        for seed in (21, 22):
            demands = seeded_ensemble(seed, cal)
            normal = normal_plan(translator, demands, policy, pool)
            fresh = FailurePlanner(translator, config=SEARCH_CONFIG)
            for relax_all in (True, False):
                assert case_view(
                    shared.plan(
                        demands, policy, pool, normal, relax_all=relax_all
                    )
                ) == case_view(
                    fresh.plan(
                        demands, policy, pool, normal, relax_all=relax_all
                    )
                )

    def test_one_planner_sees_a_policy_map_edited_in_place(
        self, demands, translator, policy
    ):
        pool = ResourcePool(homogeneous_servers(6, cpus=8))
        normal = normal_plan(translator, demands, policy, pool)
        policies = {demand.name: policy for demand in demands}
        shared = FailurePlanner(translator, config=SEARCH_CONFIG)
        shared.plan(demands, policies, pool, normal, relax_all=True)
        policies["w5"] = QoSPolicy(normal=policy.normal, failure=policy.normal)
        fresh = FailurePlanner(translator, config=SEARCH_CONFIG)
        assert case_view(
            shared.plan(demands, policies, pool, normal, relax_all=True)
        ) == case_view(
            fresh.plan(demands, policies, pool, normal, relax_all=True)
        )

    def test_sweep_makes_no_worker_invocation(
        self, demands, translator, policy
    ):
        """What-ifs run in the planner's process on every backend: a
        crash scheduled on the pool's first invocation never fires."""
        pool = ResourcePool(homogeneous_servers(6, cpus=8))
        normal = normal_plan(translator, demands, policy, pool)
        expected = FailurePlanner(translator, config=SEARCH_CONFIG).plan(
            demands, policy, pool, normal
        )
        config = ResilienceConfig(
            fault_plan=FaultPlan.of(worker_crash=[0]), sleep=_no_sleep
        )
        with ExecutionEngine.with_workers(2, config) as engine:
            pooled = FailurePlanner(
                translator, config=SEARCH_CONFIG, engine=engine
            ).plan(demands, policy, pool, normal)
        assert case_view(pooled) == case_view(expected)
        counters = engine.instrumentation.counters()
        assert counters.get("resilience.pool_respawns", 0) == 0
        assert counters["failure.cases"] == len(expected.cases)


class TestFallback:
    """Flat demands make required capacity additive (a flat demand of
    ``d`` needs ``2 d``), so a hand-built normal plan pins which cases
    repair can finish on 10.2-CPU servers."""

    LEVELS = {"a": 3.0, "b": 1.5, "c": 0.5, "d": 3.0, "e": 2.0}
    NORMAL = {"s0": ("a", "b"), "s1": ("c", "d"), "s2": ("e",)}

    @pytest.fixture
    def flat(self, cal, translator):
        demands = [
            DemandTrace(name, np.full(cal.n_observations, level), cal)
            for name, level in self.LEVELS.items()
        ]
        policy = QoSPolicy(normal=case_study_qos(m_degr_percent=0))
        # s0 and s1 share a rack; s2 is alone in the other.
        pool = ResourcePool(
            ServerSpec(name, 10, {"cpu": 10.2}, rack=rack)
            for name, rack in (("s0", "r0"), ("s1", "r0"), ("s2", "r1"))
        )
        pairs = [
            translator.translate(demand, policy.normal).pair
            for demand in demands
        ]
        normal = build_result(
            PlacementEvaluator(pairs, translator.commitments.cos2),
            pool,
            "cpu",
            [0, 0, 1, 1, 2],
            "by hand",
        )
        assert dict(normal.assignment) == self.NORMAL
        return demands, policy, pool, normal

    def test_no_home_falls_back_and_is_absorbed_there(self, flat, translator):
        """Losing s2 displaces ``e`` (4 CPUs): s0 holds 9 and s1 holds 7
        of 10.2, no survivor is idle, so repair finds no home — but
        {a, e} + {b, c, d} packs the two survivors exactly."""
        demands, policy, pool, normal = flat
        engine = ExecutionEngine.serial()
        planner = FailurePlanner(translator, config=SEARCH_CONFIG, engine=engine)
        report = planner.plan(demands, policy, pool, normal)
        assert report.all_supported
        assert [case.repaired for case in report.cases] == [True, True, False]
        counters = engine.instrumentation.counters()
        assert counters["failure.repaired"] == 2
        assert counters["failure.replanned"] == 1
        replanned = report.case_for("s2")
        assert replanned.result.algorithm == "genetic"
        assert len(replanned.moved_from(normal)) > 1
        for case in report.cases:
            assert_scalar_oracle_agrees(
                case, demands, policy, pool, translator, relax_all=False
            )

    def test_infeasible_both_ways(self, flat, translator):
        """Losing rack r0 leaves s2's 10.2 CPUs for 20 CPUs of demand."""
        demands, policy, pool, normal = flat
        engine = ExecutionEngine.serial()
        planner = FailurePlanner(translator, config=SEARCH_CONFIG, engine=engine)
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="rack"
        )
        lost_r0, lost_r1 = report.cases
        assert not lost_r0.feasible and lost_r0.result is None
        assert lost_r1.feasible and not lost_r1.repaired
        assert report.summary()["replanned"] == 2
        counters = engine.instrumentation.counters()
        assert counters["failure.repaired"] == 0
        assert counters["failure.replanned"] == counters["failure.cases"] == 2

    def test_degraded_server_evicts_largest_first(self, flat, translator):
        """s0 at half capacity (5.1) cannot keep {a, b} (9): ``a`` (6) is
        evicted, ``b`` (3) stays, and ``a`` goes where it fits."""
        demands, policy, pool, normal = flat
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="server", degraded_factor=0.5
        )
        case = report.case_for("degraded:s0@0.5")
        assert case.repaired
        assert case.moved_from(normal) == ("a",)
        assert case.result.server_of("b") == "s0"
        assert case.result.server_of("a") == "s2"
        assert_stays_put(case, normal)
        assert_scalar_oracle_agrees(
            case, demands, policy, pool, translator, relax_all=False
        )
