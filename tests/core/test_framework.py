"""Tests for the ROpus facade."""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.exceptions import ConfigurationError
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

FAST_SEARCH = GeneticSearchConfig(
    seed=0, max_generations=8, stall_generations=3, population_size=8
)


@pytest.fixture
def demands():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=13)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.4 * i) for i in range(5)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture
def framework():
    return ROpus(
        PoolCommitments.of(theta=0.9),
        ResourcePool(homogeneous_servers(5, cpus=16)),
        search_config=FAST_SEARCH,
    )


@pytest.fixture
def policy():
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3),
    )


class TestTranslate:
    def test_all_workloads_translated(self, framework, demands, policy):
        results = framework.translate(demands, policy)
        assert set(results) == {f"w{i}" for i in range(5)}

    def test_failure_mode_uses_failure_qos(self, framework, demands, policy):
        normal = framework.translate(demands, policy)
        failure = framework.translate(demands, policy, failure_mode=True)
        for name in normal:
            assert failure[name].d_new_max <= normal[name].d_new_max + 1e-12

    def test_per_workload_policies(self, framework, demands, policy):
        policies = {demand.name: policy for demand in demands}
        results = framework.translate(demands, policies)
        assert len(results) == 5

    def test_missing_policy_rejected(self, framework, demands, policy):
        with pytest.raises(ConfigurationError):
            framework.translate(demands, {"w0": policy})

    def test_duplicate_names_rejected(self, framework, demands, policy):
        with pytest.raises(ConfigurationError):
            framework.translate([demands[0], demands[0]], policy)


class TestPlan:
    def test_full_plan(self, framework, demands, policy):
        plan = framework.plan(demands, policy)
        assert plan.servers_used >= 1
        assert plan.failure_report is not None
        assert plan.spare_server_needed in (True, False)
        summary = plan.summary()
        assert summary["workloads"] == 5
        assert 0.0 <= summary["sharing_savings"] < 1.0

    def test_plan_without_failures(self, framework, demands, policy):
        plan = framework.plan(demands, policy, plan_failures=False)
        assert plan.failure_report is None
        assert plan.spare_server_needed is None

    def test_failure_sweeps_count_their_kernel_work(self, demands, policy):
        """The what-ifs' repair and fallback solves reach the plan's
        ``kernel.*`` counters: a plan with sweeps reports more rows."""
        rows = {}
        for plan_failures in (False, True):
            framework = ROpus(
                PoolCommitments.of(theta=0.9),
                ResourcePool(homogeneous_servers(5, cpus=16)),
                search_config=FAST_SEARCH,
            )
            framework.plan(demands, policy, plan_failures=plan_failures)
            counters = framework.engine.instrumentation.counters()
            rows[plan_failures] = counters["kernel.rows"]
        assert rows[True] > rows[False]

    def test_greedy_algorithm_plan(self, framework, demands, policy):
        plan = framework.plan(
            demands, policy, plan_failures=False, algorithm="first_fit"
        )
        assert plan.consolidation.algorithm == "first_fit"

    def test_all_workloads_placed(self, framework, demands, policy):
        plan = framework.plan(demands, policy, plan_failures=False)
        placed = sorted(
            name
            for names in plan.consolidation.assignment.values()
            for name in names
        )
        assert placed == sorted(demand.name for demand in demands)
