"""Tests for the ROpus facade."""

import dataclasses

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine import Checkpointer, ExecutionEngine, ResilienceConfig
from repro.exceptions import ConfigurationError
from repro.placement.affinity import PlacementConstraints
from repro.placement.consolidation import ConsolidationResult
from repro.placement.failure import FailureSweepPolicy
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.sharding import ShardingPolicy
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


class _Stamped(Exception):
    """Carries the fingerprint ``ROpus.plan`` stamps before any stage."""


class _StopAtStamp(Checkpointer):
    """A store that ends the run the moment it is stamped."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name == "fingerprint" and value is not None:
            raise _Stamped(value)


#: Each ShardingPolicy / FailureSweepPolicy field, changed.
SHARDING_CHANGES = {
    "shards": 3,
    "cluster_seed": 1,
    "refine_rounds": 3,
    "min_servers_per_shard": 3,
    "target_workloads_per_shard": 25,
}
SWEEP_CHANGES = {
    "scopes": (),
    "degraded_factor": 0.5,
    "spare_curve": True,
    "max_spares": 3,
    "max_cases": 10,
    "sample_seed": 1,
}
_PREVIOUS = ConsolidationResult(
    assignment={"server-00": ("w0", "w1", "w2", "w3", "w4")},
    required_by_server={"server-00": 8.0},
    sum_required=8.0,
    sum_peak_allocations=10.0,
    score=0.0,
    algorithm="first_fit",
)

#: One planning input changed per row: (framework kwargs, plan kwargs).
MOVES_FINGERPRINT = {
    "theta": ({"commitments": PoolCommitments.of(theta=0.8)}, {}),
    "pool size": (
        {"pool": ResourcePool(homogeneous_servers(6, cpus=16, racks=2))}, {}
    ),
    "server capacity": (
        {"pool": ResourcePool(homogeneous_servers(5, cpus=8, racks=2))}, {}
    ),
    "racks": (
        {"pool": ResourcePool(homogeneous_servers(5, cpus=16, racks=3))}, {}
    ),
    "zones": (
        {
            "pool": ResourcePool(
                homogeneous_servers(5, cpus=16, racks=2, zones=2)
            )
        },
        {},
    ),
    "search seed": (
        {"search_config": dataclasses.replace(FAST_SEARCH, seed=1)}, {}
    ),
    "tolerance": ({"tolerance": 0.02}, {}),
    "kernel": ({"kernel": "scalar"}, {}),
    **{
        f"sharding.{field}": (
            {
                "sharding": dataclasses.replace(
                    ShardingPolicy(shards=2), **{field: value}
                )
            },
            {},
        )
        for field, value in SHARDING_CHANGES.items()
    },
    "constraints": (
        {"constraints": PlacementConstraints(anti_affinity=(("w0", "w1"),))},
        {},
    ),
    **{
        f"failure_policy.{field}": (
            {
                "failure_policy": dataclasses.replace(
                    FailureSweepPolicy(), **{field: value}
                )
            },
            {},
        )
        for field, value in SWEEP_CHANGES.items()
    },
    "algorithm": ({}, {"algorithm": "first_fit"}),
    "plan_failures": ({}, {"plan_failures": False}),
    "relax_all_on_failure": ({}, {"relax_all_on_failure": False}),
    "previous": ({}, {"previous": _PREVIOUS}),
}


class TestPlanningFingerprint:
    """Every input a plan depends on moves the checkpoint fingerprint;
    how the plan is executed does not."""

    BASE = {
        "commitments": PoolCommitments.of(theta=0.9),
        "pool": ResourcePool(homogeneous_servers(5, cpus=16, racks=2)),
        "search_config": FAST_SEARCH,
        "sharding": ShardingPolicy(shards=2),
        "failure_policy": FailureSweepPolicy(),
    }

    def _fingerprint(self, tmp_path, demands, policy, framework=None, plan=None):
        kwargs = {**self.BASE, **(framework or {})}
        commitments, pool = kwargs.pop("commitments"), kwargs.pop("pool")
        ropus = ROpus(
            commitments,
            pool,
            checkpointer=_StopAtStamp(tmp_path / "ckpt"),
            **kwargs,
        )
        with pytest.raises(_Stamped) as stamped:
            ropus.plan(demands, policy, **(plan or {}))
        return stamped.value.args[0]

    def test_every_policy_field_has_a_row(self):
        assert SHARDING_CHANGES.keys() == {
            field.name for field in dataclasses.fields(ShardingPolicy)
        }
        assert SWEEP_CHANGES.keys() == {
            field.name for field in dataclasses.fields(FailureSweepPolicy)
        }

    @pytest.mark.parametrize("change", sorted(MOVES_FINGERPRINT))
    def test_a_planning_input_moves_it(self, change, tmp_path, demands, policy):
        framework, plan = MOVES_FINGERPRINT[change]
        base = self._fingerprint(tmp_path, demands, policy)
        changed = self._fingerprint(tmp_path, demands, policy, framework, plan)
        assert changed != base

    def test_demands_and_policies_move_it(self, tmp_path, demands, policy):
        base = self._fingerprint(tmp_path, demands, policy)
        scaled = [demands[0].scaled(1.5), *demands[1:]]
        assert self._fingerprint(tmp_path, scaled, policy) != base
        stricter = QoSPolicy(
            normal=case_study_qos(m_degr_percent=1), failure=policy.failure
        )
        assert self._fingerprint(tmp_path, demands, stricter) != base

    @pytest.mark.parametrize(
        "execution",
        [
            lambda: {"engine": ExecutionEngine.with_workers(2)},
            lambda: {
                "engine": ExecutionEngine.with_workers(
                    None, ResilienceConfig(max_retries=5)
                )
            },
            lambda: {"share_sweep_cache": False},
        ],
        ids=["two-workers", "resilient-serial", "unshared-sweep-cache"],
    )
    def test_execution_does_not_move_it(
        self, execution, tmp_path, demands, policy
    ):
        framework = execution()
        try:
            assert self._fingerprint(
                tmp_path, demands, policy, framework
            ) == self._fingerprint(tmp_path, demands, policy)
        finally:
            if "engine" in framework:
                framework["engine"].close()
