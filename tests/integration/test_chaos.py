"""Integration tests: plans survive injected faults and kills unchanged.

The acceptance bar for the resilience layer is *bit-identical plans*: a
run peppered with scheduled worker crashes and corrupted results, or a
run killed mid-pipeline and resumed from its checkpoints, must hash to
exactly the plan an undisturbed run produces. Recovery may cost retries
and respawns (visible in the resilience summary) but never decisions.
"""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine import ExecutionEngine
from repro.engine.checkpoint import Checkpointer
from repro.engine.faults import FaultPlan
from repro.engine.resilience import ResilienceConfig
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

FAST_SEARCH = GeneticSearchConfig(
    seed=0, max_generations=8, stall_generations=3, population_size=10
)


def _no_sleep(_delay):
    return None


@pytest.fixture(scope="module")
def demands():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=13)
    specs = [
        WorkloadSpec(name=f"app{i}", peak_cpus=1.0 + 0.5 * i)
        for i in range(6)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture(scope="module")
def policy():
    return QoSPolicy(normal=case_study_qos(m_degr_percent=3))


def _framework(
    engine=None, checkpointer=None, search_config=FAST_SEARCH, sharding="off"
):
    return ROpus(
        PoolCommitments.of(theta=0.95),
        ResourcePool(homogeneous_servers(6, cpus=16)),
        search_config=search_config,
        engine=engine if engine is not None else ExecutionEngine.serial(),
        checkpointer=checkpointer,
        sharding=sharding,
    )


def _sharded(engine=None):
    """Shard planning is the one stage that hands work to workers."""
    return _framework(engine=engine, sharding=2)


class TestChaosEquivalence:
    def test_seeded_faults_do_not_change_the_plan(self, demands, policy):
        baseline = _sharded().plan(demands, policy, plan_failures=False)

        # A serial-rung run of this problem makes six worker invocations
        # (the two shard plans, then the refinement's re-plans); the
        # seed-11 schedule crashes invocation 2.
        fault_plan = FaultPlan.seeded(
            11, horizon=4096, crash_rate=0.05, corrupt_rate=0.05
        )
        config = ResilienceConfig(fault_plan=fault_plan, sleep=_no_sleep)
        with ExecutionEngine.with_workers(None, config) as chaotic_engine:
            chaotic = _sharded(engine=chaotic_engine).plan(
                demands, policy, plan_failures=False
            )

        assert chaotic.plan_hash() == baseline.plan_hash()
        summary = chaotic.resilience_summary()
        assert summary.get("resilience.faults_injected", 0) > 0
        assert summary.get("resilience.retries", 0) > 0

    def test_resilience_summary_surfaces_in_plan_summary(self, demands, policy):
        config = ResilienceConfig(
            fault_plan=FaultPlan.of(corrupt_result=[0]), sleep=_no_sleep
        )
        with ExecutionEngine.with_workers(None, config) as engine:
            plan = _sharded(engine=engine).plan(
                demands, policy, plan_failures=False
            )
        resilience = plan.summary()["resilience"]
        assert resilience["resilience.corrupt_results"] == 1

    def test_fault_free_resilient_run_reports_no_recovery(
        self, demands, policy
    ):
        with ExecutionEngine.with_workers(
            None, ResilienceConfig(sleep=_no_sleep)
        ) as engine:
            plan = _sharded(engine=engine).plan(
                demands, policy, plan_failures=False
            )
        assert plan.resilience_summary() == {}


class TestCheckpointResume:
    def test_killed_run_resumes_to_identical_plan(
        self, demands, policy, tmp_path
    ):
        baseline = _framework().plan(demands, policy)

        class _Killed(Exception):
            """Stands in for the SIGKILL that ends the first run."""

        # The full run checkpoints five times (three GA generations,
        # two failure cases); killing on the fourth save lands the kill
        # mid-failure-sweep, after the search already checkpointed.
        class _Interrupting(Checkpointer):
            remaining = 4

            def save(self, key, payload):
                stuck = super().save(key, payload)
                type(self).remaining -= 1
                if type(self).remaining <= 0:
                    raise _Killed
                return stuck

        directory = tmp_path / "ckpt"
        with pytest.raises(_Killed):
            _framework(checkpointer=_Interrupting(directory)).plan(
                demands, policy
            )

        resumed_framework = _framework(checkpointer=Checkpointer(directory))
        resumed = resumed_framework.plan(demands, policy)
        assert resumed.plan_hash() == baseline.plan_hash()
        summary = resumed.resilience_summary()
        assert summary.get("checkpoint.reads", 0) > 0
        assert summary.get("placement.ga_resumes", 0) >= 1

    def test_mid_sweep_kill_resumes_completed_cases(
        self, demands, policy, tmp_path
    ):
        baseline = _framework().plan(demands, policy)
        n_cases = len(baseline.failure_report.cases)
        assert n_cases > 1

        class _Killed(Exception):
            """Stands in for the SIGKILL that ends the first run."""

        # Die *before* persisting the second failure case: the sweep
        # must already have journaled the first one by then (cases are
        # saved as they complete, not after the whole sweep returns).
        class _KilledMidSweep(Checkpointer):
            def save(self, key, payload):
                if key.startswith("failure/") and any(
                    stored.startswith("failure/") for stored in self.keys()
                ):
                    raise _Killed
                return super().save(key, payload)

        directory = tmp_path / "ckpt"
        with pytest.raises(_Killed):
            _framework(checkpointer=_KilledMidSweep(directory)).plan(
                demands, policy
            )
        survivor_store = Checkpointer(directory)
        persisted = [
            key for key in survivor_store.keys() if key.startswith("failure/")
        ]
        assert len(persisted) == 1

        resumed = _framework(checkpointer=survivor_store).plan(
            demands, policy
        )
        assert resumed.plan_hash() == baseline.plan_hash()
        resumes = resumed.resilience_summary().get("failure.case_resumes", 0)
        assert resumes == 1

    def test_checkpointed_run_equals_uncheckpointed(
        self, demands, policy, tmp_path
    ):
        baseline = _framework().plan(demands, policy, plan_failures=False)
        checkpointed = _framework(
            checkpointer=Checkpointer(tmp_path / "ckpt")
        ).plan(demands, policy, plan_failures=False)
        assert checkpointed.plan_hash() == baseline.plan_hash()

    def test_completed_run_rotates_its_checkpoints_out(
        self, demands, policy, tmp_path
    ):
        store = Checkpointer(tmp_path / "ckpt")
        _framework(checkpointer=store).plan(demands, policy)
        assert store.keys() == []

    def test_changed_inputs_never_resume_stale_checkpoints(
        self, demands, policy, tmp_path
    ):
        class _Killed(Exception):
            pass

        class _Interrupting(Checkpointer):
            remaining = 2

            def save(self, key, payload):
                stuck = super().save(key, payload)
                type(self).remaining -= 1
                if type(self).remaining <= 0:
                    raise _Killed
                return stuck

        directory = tmp_path / "ckpt"
        with pytest.raises(_Killed):
            _framework(checkpointer=_Interrupting(directory)).plan(
                demands, policy
            )
        assert Checkpointer(directory).keys() != []

        # Re-plan over *different inputs* (another search seed) against
        # the same checkpoint directory: the leftover documents carry
        # the old inputs' fingerprint, so nothing resumes — the genetic
        # search restarts instead of silently inheriting the old run's
        # (possibly converged) population.
        changed = GeneticSearchConfig(
            seed=1, max_generations=8, stall_generations=3, population_size=10
        )
        replan = _framework(
            checkpointer=Checkpointer(directory), search_config=changed
        ).plan(demands, policy)
        fresh = _framework(search_config=changed).plan(demands, policy)
        assert replan.plan_hash() == fresh.plan_hash()
        summary = replan.resilience_summary()
        assert summary.get("placement.ga_resumes", 0) == 0
        assert summary.get("failure.case_resumes", 0) == 0
        assert summary.get("checkpoint.fingerprint_mismatches", 0) >= 1
