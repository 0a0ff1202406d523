"""Tests for the hierarchical placement tier (cluster → shard → refine)."""

import pytest

from repro.core.cos import PoolCommitments
from repro.engine.checkpoint import Checkpointer
from repro.exceptions import PlacementError
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.sharding import (
    HierarchicalPlanner,
    ShardingPolicy,
    derive_shard_seed,
    pair_shape_features,
    partition_pool,
)
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

FAST_SEARCH = GeneticSearchConfig(
    seed=3, max_generations=8, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def demands():
    calendar = TraceCalendar(weeks=1, slot_minutes=30)
    generator = WorkloadGenerator(seed=17)
    specs = [
        WorkloadSpec(
            name=f"w{i:02d}",
            peak_cpus=1.0 + 0.3 * i,
            noise_sigma=0.2 + 0.02 * i,
            spike_rate_per_week=float(i % 3),
            spike_magnitude=2.0,
        )
        for i in range(12)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture(scope="module")
def pairs(demands):
    framework = ROpus(
        PoolCommitments.of(theta=0.9),
        ResourcePool(homogeneous_servers(10, cpus=16)),
    )
    policy = QoSPolicy(normal=case_study_qos(m_degr_percent=3))
    translations = framework.translate(demands, policy)
    return [result.pair for result in translations.values()]


def _planner(pool_size=10, policy=None, config=FAST_SEARCH):
    # 32-way servers: the spikiest fixture workload needs ~25 CPUs of
    # peak allocation, so every workload fits on every server.
    return HierarchicalPlanner(
        ResourcePool(homogeneous_servers(pool_size, cpus=32)),
        PoolCommitments.of(theta=0.9).cos2,
        config=config,
        policy=policy or ShardingPolicy(shards=2, cluster_seed=7),
    )


class TestShardingPolicy:
    def test_off_disables_the_tier(self):
        policy = ShardingPolicy(shards="off")
        assert not policy.enabled
        assert policy.resolved_shards(100, 50) == 1

    def test_auto_targets_workloads_per_shard(self):
        policy = ShardingPolicy(
            shards="auto", target_workloads_per_shard=10,
            min_servers_per_shard=2,
        )
        assert policy.resolved_shards(40, 20) == 4
        # Server floor binds before the workload target.
        assert policy.resolved_shards(40, 4) == 2

    def test_explicit_count_clamped_to_pool(self):
        policy = ShardingPolicy(shards=8)
        assert policy.resolved_shards(100, 4) == 4
        assert policy.resolved_shards(2, 100) == 2

    def test_invalid_knobs_rejected(self):
        with pytest.raises(PlacementError):
            ShardingPolicy(shards="sideways")
        with pytest.raises(PlacementError):
            ShardingPolicy(shards=0)
        with pytest.raises(PlacementError):
            ShardingPolicy(refine_rounds=-1)
        with pytest.raises(PlacementError):
            ShardingPolicy(min_servers_per_shard=0)
        with pytest.raises(PlacementError):
            ShardingPolicy(target_workloads_per_shard=0)


class TestPartitionPool:
    def test_apportions_servers_to_mass(self):
        pool = ResourcePool(homogeneous_servers(10))
        # Each shard gets its 1-server floor; the 8 spare servers are
        # apportioned 3:1 to the masses.
        slices = partition_pool(pool, [3.0, 1.0], min_servers_per_shard=1)
        assert [len(s) for s in slices] == [7, 3]

    def test_minimum_servers_per_shard_honoured(self):
        pool = ResourcePool(homogeneous_servers(10))
        slices = partition_pool(pool, [100.0, 1.0], min_servers_per_shard=2)
        assert min(len(s) for s in slices) >= 2

    def test_slices_partition_the_pool_in_order(self):
        pool = ResourcePool(homogeneous_servers(9))
        slices = partition_pool(pool, [1.0, 2.0, 3.0])
        flat = [name for piece in slices for name in piece]
        assert flat == pool.names()

    def test_zero_mass_splits_evenly(self):
        pool = ResourcePool(homogeneous_servers(9))
        slices = partition_pool(pool, [0.0, 0.0, 0.0])
        assert [len(s) for s in slices] == [3, 3, 3]

    def test_deterministic_for_equal_masses(self):
        pool = ResourcePool(homogeneous_servers(7))
        first = partition_pool(pool, [1.0, 1.0, 1.0])
        second = partition_pool(pool, [1.0, 1.0, 1.0])
        assert first == second

    def test_capacity_floors_raise_starved_shards(self):
        pool = ResourcePool(homogeneous_servers(10))
        # Mass says 9:1, but the small shard's floor demands 4 servers.
        slices = partition_pool(
            pool, [9.0, 1.0], min_servers_per_shard=1, floors=[1, 4]
        )
        assert len(slices[1]) >= 4

    def test_unsatisfiable_floors_trimmed_to_fit(self):
        pool = ResourcePool(homogeneous_servers(4))
        # Floors sum past the pool: trimmed largest-first until they
        # fit, so both shards keep an equal share of their floors.
        slices = partition_pool(pool, [3.0, 1.0], floors=[4, 4])
        assert [len(s) for s in slices] == [2, 2]

    def test_floor_length_mismatch_rejected(self):
        pool = ResourcePool(homogeneous_servers(4))
        with pytest.raises(PlacementError):
            partition_pool(pool, [1.0, 1.0], floors=[1])

    def test_infeasible_minimum_rejected(self):
        pool = ResourcePool(homogeneous_servers(3))
        with pytest.raises(PlacementError):
            partition_pool(pool, [1.0, 1.0], min_servers_per_shard=2)

    def test_negative_mass_rejected(self):
        pool = ResourcePool(homogeneous_servers(3))
        with pytest.raises(PlacementError):
            partition_pool(pool, [1.0, -1.0])


class TestDeriveShardSeed:
    def test_deterministic_and_distinct_per_shard(self):
        seeds = [derive_shard_seed(2006, index) for index in range(8)]
        assert seeds == [derive_shard_seed(2006, index) for index in range(8)]
        assert len(set(seeds)) == len(seeds)

    def test_none_passes_through(self):
        assert derive_shard_seed(None, 3) is None


class TestPairShapeFeatures:
    def test_exact_cos1_fraction(self, pairs):
        features = pair_shape_features(pairs)
        from repro.placement.clustering import FEATURE_NAMES

        column = features.raw[:, FEATURE_NAMES.index("cos1_fraction")]
        for row, pair in enumerate(pairs):
            total = float(pair.cos1.values.sum() + pair.cos2.values.sum())
            expected = float(pair.cos1.values.sum()) / total
            assert column[row] == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(PlacementError):
            pair_shape_features([])


class TestHierarchicalPlanner:
    def test_full_pipeline_places_every_workload_once(self, pairs):
        planner = _planner()
        result = planner.plan(pairs)
        placed = sorted(
            name
            for names in result.consolidation.assignment.values()
            for name in names
        )
        assert placed == sorted(pair.name for pair in pairs)
        assert result.consolidation.algorithm == "sharded-genetic"
        assert result.shard_count >= 1

    def test_shards_use_disjoint_servers(self, pairs):
        result = _planner().plan(pairs)
        seen: set[str] = set()
        for servers in result.shard_servers:
            assert not seen.intersection(servers)
            seen.update(servers)

    def test_sum_required_matches_per_server_total(self, pairs):
        result = _planner().plan(pairs)
        consolidation = result.consolidation
        assert consolidation.sum_required == pytest.approx(
            sum(consolidation.required_by_server.values())
        )

    def test_deterministic_across_runs(self, pairs):
        first = _planner().plan(pairs)
        second = _planner().plan(pairs)
        assert dict(first.consolidation.assignment) == dict(
            second.consolidation.assignment
        )
        assert first.migrations == second.migrations
        assert first.refine_rounds_run == second.refine_rounds_run

    def test_refinement_rounds_bounded_by_policy(self, pairs):
        policy = ShardingPolicy(shards=3, cluster_seed=7, refine_rounds=1)
        result = _planner(policy=policy).plan(pairs)
        assert result.refine_rounds_run <= 1

    def test_zero_refine_rounds_skips_refinement(self, pairs):
        policy = ShardingPolicy(shards=2, cluster_seed=7, refine_rounds=0)
        result = _planner(policy=policy).plan(pairs)
        assert result.refine_rounds_run == 0
        assert result.migrations == 0

    def test_stage_order_enforced(self, pairs):
        planner = _planner()
        with pytest.raises(PlacementError):
            planner.partition()
        planner.cluster(pairs)
        with pytest.raises(PlacementError):
            planner.refine()

    def test_summary_reports_the_tier(self, pairs):
        result = _planner().plan(pairs)
        summary = result.summary()
        assert summary["shards"] == result.shard_count
        assert sum(summary["shard_sizes"]) == len(pairs)
        assert len(summary["shard_seconds"]) == result.shard_count

    def test_empty_pool_rejected(self):
        with pytest.raises(PlacementError):
            HierarchicalPlanner(
                ResourcePool([]), PoolCommitments.of(theta=0.9).cos2
            )

    def test_no_workloads_rejected(self):
        with pytest.raises(PlacementError):
            _planner().cluster([])


class TestShardCheckpoints:
    def test_completed_shards_resume_from_checkpoint(self, pairs, tmp_path):
        store = Checkpointer(tmp_path / "ckpt")
        baseline = _planner().plan(pairs, checkpointer=store)
        assert baseline.resumed_shards == 0
        assert any(key.startswith("shard/") for key in store.keys())

        resumed = _planner().plan(pairs, checkpointer=Checkpointer(tmp_path / "ckpt"))
        assert resumed.resumed_shards == baseline.shard_count
        assert dict(resumed.consolidation.assignment) == dict(
            baseline.consolidation.assignment
        )

    def test_membership_mismatch_invalidates_a_shard(self, pairs, tmp_path):
        store = Checkpointer(tmp_path / "ckpt")
        baseline = _planner().plan(pairs, checkpointer=store)
        assert baseline.shard_count >= 2

        # Tamper with the workloads shard 0's kept result places: a
        # resume whose clustering assigned different workloads to the
        # shard must recompute it rather than trust the stale plan.
        doctored = store.load("shard/0")
        assert doctored is not None
        assignment = doctored["result"]["assignment"]
        server, names = next(iter(assignment.items()))
        assignment[server] = ["not-a-real-workload", *names[1:]]
        store.save("shard/0", doctored)

        resumed = _planner().plan(pairs, checkpointer=store)
        assert resumed.resumed_shards == baseline.shard_count - 1
        assert dict(resumed.consolidation.assignment) == dict(
            baseline.consolidation.assignment
        )
