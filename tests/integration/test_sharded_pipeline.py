"""Integration tests for the hierarchical (sharded) planning pipeline.

Three contracts:

* ``sharding="off"`` is *bit-for-bit* the pre-refactor pipeline — a
  plan composed by hand from the original pieces (translate, one
  monolithic ``Consolidator.consolidate``, ``FailurePlanner.plan``)
  hashes identically to what the staged facade produces;
* a sharded run killed mid-placement resumes the already-planned
  shards from their checkpoints and still converges to the exact plan
  of an undisturbed run;
* sharding trades little quality for its scalability: on a small
  ensemble the sharded plan stays within a modest factor of the
  monolithic one and places every workload exactly once.
"""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import CapacityPlan, ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine.checkpoint import Checkpointer
from repro.placement.consolidation import Consolidator
from repro.placement.failure import FailurePlanner
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.ensemble import case_study_ensemble
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

FAST_SEARCH = GeneticSearchConfig(
    seed=0, max_generations=8, stall_generations=3, population_size=10
)


@pytest.fixture(scope="module")
def policy():
    return QoSPolicy(normal=case_study_qos(m_degr_percent=3))


@pytest.fixture(scope="module")
def paper_demands():
    """The 26-application case study at a test-friendly calendar."""
    return case_study_ensemble(seed=2006, weeks=1, slot_minutes=30)


@pytest.fixture(scope="module")
def small_demands():
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


def _paper_pool():
    return ResourcePool(homogeneous_servers(12, cpus=16))


def _small_pool():
    return ResourcePool(homogeneous_servers(10, cpus=32))


def _framework(pool, checkpointer=None, **kwargs):
    return ROpus(
        PoolCommitments.of(theta=0.9),
        pool,
        search_config=FAST_SEARCH,
        checkpointer=checkpointer,
        **kwargs,
    )


class TestOffPathParity:
    """``sharding="off"`` must equal the pre-refactor pipeline exactly."""

    @pytest.mark.parametrize("plan_failures", [False, True])
    def test_plan_hash_matches_hand_composed_pipeline(
        self, paper_demands, policy, plan_failures
    ):
        framework = _framework(_paper_pool())
        staged = framework.plan(
            paper_demands, policy, plan_failures=plan_failures
        )

        # The pre-refactor pipeline, composed by hand from the original
        # pieces: translate every workload, run one monolithic
        # consolidation over the whole pool, then (optionally) sweep
        # failure what-ifs against the resulting placement.
        reference = _framework(_paper_pool())
        translations = reference.translate(paper_demands, policy)
        pairs = [result.pair for result in translations.values()]
        consolidation = Consolidator(
            reference.pool,
            reference.commitments.cos2,
            config=FAST_SEARCH,
            engine=reference.engine,
        ).consolidate(pairs, algorithm="genetic")
        failure_report = None
        if plan_failures:
            failure_report = FailurePlanner(
                reference.translator,
                config=FAST_SEARCH,
                engine=reference.engine,
            ).plan(
                paper_demands,
                policy,
                reference.pool,
                consolidation,
                relax_all=True,
                algorithm="genetic",
            )
        manual = CapacityPlan(
            translations=translations,
            consolidation=consolidation,
            failure_report=failure_report,
        )

        assert staged.plan_hash() == manual.plan_hash()
        assert staged.sharding is None

    def test_off_is_the_default(self, small_demands, policy):
        framework = _framework(_small_pool())
        assert not framework.sharding_policy.enabled
        plan = framework.plan(small_demands, policy, plan_failures=False)
        assert plan.sharding is None
        assert plan.consolidation.algorithm == "genetic"


class TestShardedKillResume:
    def test_kill_mid_shard_wave_resumes_completed_shards(
        self, small_demands, policy, tmp_path
    ):
        def sharded(checkpointer):
            return _framework(
                _small_pool(),
                checkpointer=checkpointer,
                sharding=3,
                cluster_seed=7,
            )

        baseline = sharded(None).plan(
            small_demands, policy, plan_failures=False
        )
        assert baseline.sharding is not None
        assert baseline.sharding["shards"] >= 2

        class _Killed(Exception):
            """Stands in for the SIGKILL that ends the first run."""

        # Die before persisting the second shard: the first one must
        # already be journaled (shards are saved as their unit returns,
        # one by one, not after the whole placement stage returns).
        class _KilledMidWave(Checkpointer):
            def save(self, key, payload):
                if key.startswith("shard/") and any(
                    stored.startswith("shard/") for stored in self.keys()
                ):
                    raise _Killed
                return super().save(key, payload)

        directory = tmp_path / "ckpt"
        with pytest.raises(_Killed):
            sharded(_KilledMidWave(directory)).plan(
                small_demands, policy, plan_failures=False
            )
        survivor_store = Checkpointer(directory)
        persisted = [
            key for key in survivor_store.keys() if key.startswith("shard/")
        ]
        assert len(persisted) == 1

        resumed = sharded(survivor_store).plan(
            small_demands, policy, plan_failures=False
        )
        assert resumed.plan_hash() == baseline.plan_hash()
        resumes = resumed.resilience_summary().get(
            "placement.shard_resumes", 0
        )
        assert resumes == 1
        assert resumed.sharding["resumed_shards"] == 1

    def test_kill_inside_a_lock_step_unit_resumes_to_the_same_hash(
        self, small_demands, policy, tmp_path, monkeypatch
    ):
        """Every pending shard plans in one unit; a kill before the unit
        returns journals none of them, and the resume replans them all
        to the undisturbed plan."""
        from repro.placement import evaluation

        def sharded(checkpointer):
            return _framework(
                _small_pool(),
                checkpointer=checkpointer,
                sharding=3,
                cluster_seed=7,
            )

        baseline = sharded(None).plan(
            small_demands, policy, plan_failures=False
        )

        class _Killed(Exception):
            """Stands in for the SIGKILL that ends the first run."""

        solves = []
        batched = evaluation._evaluate_items_batched

        def dies_mid_unit(parts):
            solves.append(parts)
            if len(solves) == 5:
                raise _Killed
            return batched(parts)

        directory = tmp_path / "ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "_evaluate_items_batched", dies_mid_unit)
            with pytest.raises(_Killed):
                sharded(Checkpointer(directory)).plan(
                    small_demands, policy, plan_failures=False
                )
        # The kill came while the unit's shards were all still in flight.
        assert max(len(parts) for parts in solves) > 1
        store = Checkpointer(directory)
        assert not [key for key in store.keys() if key.startswith("shard/")]

        resumed = sharded(store).plan(small_demands, policy, plan_failures=False)
        assert resumed.plan_hash() == baseline.plan_hash()
        assert resumed.sharding["resumed_shards"] == 0

    def test_completed_sharded_run_rotates_checkpoints_out(
        self, small_demands, policy, tmp_path
    ):
        store = Checkpointer(tmp_path / "ckpt")
        _framework(
            _small_pool(), checkpointer=store, sharding=2, cluster_seed=7
        ).plan(small_demands, policy, plan_failures=False)
        assert store.keys() == []


class TestShardedQuality:
    def test_sharded_plan_places_everything_near_monolithic_cost(
        self, small_demands, policy
    ):
        monolithic = _framework(_small_pool()).plan(
            small_demands, policy, plan_failures=False
        )
        sharded = _framework(
            _small_pool(), sharding=2, cluster_seed=7
        ).plan(small_demands, policy, plan_failures=False)

        placed = sorted(
            name
            for names in sharded.consolidation.assignment.values()
            for name in names
        )
        assert placed == sorted(demand.name for demand in small_demands)
        assert sharded.consolidation.algorithm == "sharded-genetic"
        # Decomposition costs some optimality on a tiny ensemble (12
        # workloads split two ways lose real multiplexing diversity —
        # the paper-scale comparison lives in the scaling benchmark),
        # but never more than a modest factor.
        assert sharded.consolidation.sum_required <= (
            1.25 * monolithic.consolidation.sum_required
        )

    def test_sharded_summary_and_timings_surface_the_tier(
        self, small_demands, policy
    ):
        plan = _framework(
            _small_pool(), sharding=2, cluster_seed=7
        ).plan(small_demands, policy, plan_failures=False)
        summary = plan.summary()
        assert summary["sharding"]["shards"] == 2
        assert len(summary["sharding"]["shard_seconds"]) == 2
        for stage in ("clustering", "sharding", "placement", "refinement"):
            assert stage in plan.timings
        assert plan.counters.get("placement.shards") == 2

    def test_sharded_runs_are_deterministic(self, small_demands, policy):
        first = _framework(
            _small_pool(), sharding=3, cluster_seed=5
        ).plan(small_demands, policy, plan_failures=False)
        second = _framework(
            _small_pool(), sharding=3, cluster_seed=5
        ).plan(small_demands, policy, plan_failures=False)
        assert first.plan_hash() == second.plan_hash()

        def decisions(plan):
            # Everything in the tier's summary except wall-clock.
            return {
                key: value
                for key, value in plan.sharding.items()
                if key != "shard_seconds"
            }

        assert decisions(first) == decisions(second)

    def test_auto_sharding_on_a_small_ensemble_stays_single_shard(
        self, small_demands, policy
    ):
        # 12 workloads fit one auto shard (target 24/shard): the tier
        # runs but degenerates to a single sub-pool spanning the pool.
        plan = _framework(_small_pool(), sharding="auto").plan(
            small_demands, policy, plan_failures=False
        )
        assert plan.sharding["shards"] == 1
        assert plan.consolidation.algorithm == "sharded-genetic"
