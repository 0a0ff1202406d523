"""Serial and parallel backends must produce identical plans.

The engine contract: work units are pure functions, seeded RNG stays in
the driver, so the executor backend must never change a planning result.
These tests run the full translate -> place -> failure pipeline under
both backends and require identical outputs. The plans are sharded:
shard planning is the one stage that hands work to the pool.
"""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine import ExecutionEngine
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

FAST_SEARCH = GeneticSearchConfig(
    seed=7, max_generations=6, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def demands():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=42)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.5 * i) for i in range(4)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture
def policy():
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
    )


def make_framework(engine, **kwargs):
    return ROpus(
        PoolCommitments.of(theta=0.9),
        ResourcePool(homogeneous_servers(4, cpus=16)),
        search_config=FAST_SEARCH,
        engine=engine,
        sharding=2,
        **kwargs,
    )


def plan_with(engine, demands, policy, **kwargs):
    framework = make_framework(engine, **kwargs)
    try:
        return framework.plan(demands, policy, plan_failures=True)
    finally:
        engine.close()


class TestBackendEquivalence:
    def test_full_pipeline_plans_identically(self, demands, policy):
        serial_plan = plan_with(ExecutionEngine.serial(), demands, policy)
        parallel_plan = plan_with(
            ExecutionEngine.with_workers(2), demands, policy
        )

        assert (
            dict(serial_plan.consolidation.assignment)
            == dict(parallel_plan.consolidation.assignment)
        )
        assert (
            dict(serial_plan.consolidation.required_by_server)
            == dict(parallel_plan.consolidation.required_by_server)
        )
        assert (
            serial_plan.consolidation.sum_required
            == parallel_plan.consolidation.sum_required
        )

        serial_summary = serial_plan.summary()
        parallel_summary = parallel_plan.summary()
        # Wall-clock timings (stages and shards) and execution
        # telemetry (kernel batching granularity) legitimately differ
        # between backends; the planning quantities must not.
        for summary in (serial_summary, parallel_summary):
            summary.pop("stage_timings")
            summary["sharding"].pop("shard_seconds")
        serial_counters = serial_summary.pop("counters")
        parallel_counters = parallel_summary.pop("counters")
        assert serial_summary == parallel_summary
        # Both backends account their capacity-search work.
        assert serial_counters["kernel.calls"] > 0
        assert parallel_counters["kernel.calls"] > 0

    def test_shard_counters_agree_across_backends(self, demands, policy):
        """Shards report their work to the planner on either backend;
        only how many decision steps it took depends on the grouping
        of shards into units."""
        plans = []
        for engine in (ExecutionEngine.serial(), ExecutionEngine.with_workers(2)):
            with engine:
                plans.append(
                    make_framework(engine).plan(
                        demands, policy, plan_failures=False
                    )
                )
        serial, parallel = (plan.counters for plan in plans)
        assert serial["kernel.rows"] > 0
        assert serial["placement.consolidations"] >= plans[0].sharding["shards"]
        assert serial["placement.ga_generations"] > 0
        for name in (
            "kernel.rows",
            "kernel.row_evaluations",
            "placement.consolidations",
            "placement.ga_generations",
        ):
            assert serial[name] == parallel[name], name
        assert (
            serial["placement.cache_hits"] + serial["placement.cache_misses"]
            == parallel["placement.cache_hits"]
            + parallel["placement.cache_misses"]
        )

    def test_failure_cases_identical(self, demands, policy):
        serial_plan = plan_with(ExecutionEngine.serial(), demands, policy)
        parallel_plan = plan_with(
            ExecutionEngine.with_workers(2), demands, policy
        )

        def case_view(report):
            return [
                (
                    case.label,
                    case.feasible,
                    case.affected_workloads,
                    case.servers_used,
                )
                for case in report.cases
            ]

        assert case_view(serial_plan.failure_report) == case_view(
            parallel_plan.failure_report
        )

    def test_batch_kernel_parallel_matches_scalar_serial(
        self, demands, policy
    ):
        """The strongest cross-cutting check: scalar serial vs batched
        parallel (the default production path) — identical plans."""
        scalar_plan = plan_with(
            ExecutionEngine.serial(),
            demands,
            policy,
            kernel="scalar",
            share_sweep_cache=False,
        )
        batch_plan = plan_with(
            ExecutionEngine.with_workers(2), demands, policy, kernel="batch"
        )
        assert dict(scalar_plan.consolidation.assignment) == dict(
            batch_plan.consolidation.assignment
        )
        assert dict(scalar_plan.consolidation.required_by_server) == dict(
            batch_plan.consolidation.required_by_server
        )

    def test_plan_records_stage_timings(self, demands, policy):
        plan = plan_with(ExecutionEngine.serial(), demands, policy)
        assert set(plan.timings) >= {
            "translation",
            "placement",
            "failure_planning",
        }
        assert all(value >= 0.0 for value in plan.timings.values())
        assert plan.summary()["stage_timings"] == dict(plan.timings)
