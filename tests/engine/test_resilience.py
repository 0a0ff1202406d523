"""Failure-mode tests for the fault-tolerant execution layer.

Each test drives one recovery path the resilience layer promises:
retried transient faults, SIGKILLed workers (a real ``os._exit`` in a
pool process), wedged workers against the task deadline, the
parallel-to-serial ladder, and the bounded give-up. Process-pool cases
use tiny worker counts and payloads so the whole module stays fast.
"""

import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.engine import ExecutionEngine, resilience
from repro.engine.faults import FaultPlan
from repro.engine.instrumentation import Instrumentation
from repro.engine.resilience import (
    ResilienceConfig,
    ResilientExecutor,
    backoff_delay,
)
from repro.exceptions import (
    ConfigurationError,
    InfeasiblePlacementError,
    ResilienceError,
)


def _double(shared, item):
    return item * 2


def _add_offset(shared, item):
    offset = shared if shared is not None else 0
    return item + offset


def _raise_domain_error(shared, item):
    raise InfeasiblePlacementError(f"workload {item} fits nowhere")


def _no_sleep(_delay):
    return None


def _config(**overrides):
    overrides.setdefault("sleep", _no_sleep)
    return ResilienceConfig(**overrides)


def _map(executor, work, items, shared=None):
    with executor.session(shared) as session:
        return session.map(work, items)


def _instrumented(executor):
    instrumentation = Instrumentation()
    executor.attach_instrumentation(instrumentation)
    return instrumentation


class TestConfig:
    def test_defaults_valid(self):
        ResilienceConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(task_timeout_seconds=0.0)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ResilientExecutor(workers=0)


class TestBackoff:
    def test_no_jitter_is_pure_exponential(self, monkeypatch):
        monkeypatch.setattr(resilience, "_BACKOFF_JITTER", 0.0)
        assert backoff_delay(0) == pytest.approx(0.05)
        assert backoff_delay(1) == pytest.approx(0.10)
        assert backoff_delay(2) == pytest.approx(0.20)

    def test_jitter_is_deterministic_per_seed(self, monkeypatch):
        delays = [backoff_delay(k) for k in range(4)]
        assert delays == [backoff_delay(k) for k in range(4)]
        monkeypatch.setattr(resilience, "_JITTER_SEED", 4)
        assert delays != [backoff_delay(k) for k in range(4)]

    def test_jitter_bounded_by_amplitude(self):
        for retry in range(8):
            base = 0.05 * 2.0**retry
            delay = backoff_delay(retry)
            assert base <= delay <= base * 1.25

    def test_injected_sleeper_records_exact_sequence(self):
        recorded = []
        config = ResilienceConfig(
            max_retries=2,
            fault_plan=FaultPlan.of(corrupt_result=[0, 1]),
            sleep=recorded.append,
        )
        executor = ResilientExecutor(config=config)
        assert _map(executor, _double, [5]) == [10]
        assert recorded == [backoff_delay(0), backoff_delay(1)]
        assert 0.05 <= recorded[0] <= 0.0625 and 0.10 <= recorded[1] <= 0.125


class TestSerialRung:
    def test_plain_map_matches_serial_semantics(self):
        executor = ResilientExecutor(config=_config())
        assert _map(executor, _double, [3, 1, 2]) == [6, 2, 4]
        assert _map(executor, _double, []) == []

    def test_shared_payload_reaches_work_units(self):
        executor = ResilientExecutor(config=_config())
        assert _map(executor, _add_offset, [1, 2], shared=10) == [11, 12]

    def test_simulated_crash_is_retried(self):
        config = _config(fault_plan=FaultPlan.of(worker_crash=[0]))
        executor = ResilientExecutor(config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [1, 2, 3]) == [2, 4, 6]
        counters = instrumentation.counters()
        assert counters["resilience.retries"] == 1
        assert counters["resilience.faults_injected"] == 1

    def test_corrupt_result_is_detected_and_retried(self):
        config = _config(fault_plan=FaultPlan.of(corrupt_result=[1]))
        executor = ResilientExecutor(config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [1, 2]) == [2, 4]
        assert instrumentation.counters()["resilience.corrupt_results"] == 1

    def test_simulated_hang_counts_deadline(self):
        config = _config(fault_plan=FaultPlan.of(worker_hang=[0]))
        executor = ResilientExecutor(config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [9]) == [18]
        assert instrumentation.counters()["resilience.deadline_exceeded"] == 1

    def test_persistent_fault_exhausts_budget(self):
        # Occurrences 0..4 all crash: initial + 2 retries on one item
        # never find a clean occurrence.
        config = _config(
            max_retries=2, fault_plan=FaultPlan.of(worker_crash=range(5))
        )
        executor = ResilientExecutor(config=config)
        with pytest.raises(ResilienceError):
            _map(executor, _double, [1])

    def test_domain_error_is_fatal_not_retried(self):
        config = _config()
        executor = ResilientExecutor(config=config)
        instrumentation = _instrumented(executor)
        with pytest.raises(InfeasiblePlacementError):
            _map(executor, _raise_domain_error, [1])
        assert "resilience.retries" not in instrumentation.counters()

    def test_fatal_error_stops_the_batch_early(self):
        calls = []

        def fn(shared, item):
            calls.append(item)
            raise InfeasiblePlacementError("nope")

        executor = ResilientExecutor(config=_config())
        with pytest.raises(InfeasiblePlacementError):
            with executor.session() as session:
                # In-process harness: picklability is irrelevant here.
                session.map(fn, [1, 2, 3])  # ropus: ignore[ROP004]
        # map() discards partial results on a fatal error, so the rest
        # of the batch is never evaluated.
        assert calls == [1]

    def test_keyboard_interrupt_propagates_immediately(self):
        calls = []

        def fn(shared, item):
            calls.append(item)
            raise KeyboardInterrupt

        executor = ResilientExecutor(config=_config())
        with pytest.raises(KeyboardInterrupt):
            with executor.session() as session:
                # In-process harness: picklability is irrelevant here.
                session.map(fn, [1, 2, 3])  # ropus: ignore[ROP004]
        assert calls == [1]

    def test_retries_draw_fresh_occurrences(self):
        # One map of three items takes occurrences 0-2; the retry of the
        # faulted item takes occurrence 3; a plan scheduling 3 as well
        # must therefore fault the retry too (two retries total).
        config = _config(fault_plan=FaultPlan.of(worker_crash=[1, 3]))
        executor = ResilientExecutor(config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [1, 2, 3]) == [2, 4, 6]
        assert instrumentation.counters()["resilience.retries"] == 2


class TestParallelRung:
    def test_plain_parallel_map(self):
        executor = ResilientExecutor(workers=2, config=_config())
        with executor.session(shared=100) as session:
            assert session.map(_add_offset, [1, 2, 3]) == [101, 102, 103]

    def test_sigkilled_worker_is_respawned_and_retried(self):
        # Occurrence 0 dies with os._exit in the pool: the driver sees
        # BrokenProcessPool, respawns, and retries every unfinished item.
        config = _config(fault_plan=FaultPlan.of(worker_crash=[0]))
        executor = ResilientExecutor(workers=2, config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        counters = instrumentation.counters()
        assert counters["resilience.pool_respawns"] >= 1
        assert counters["resilience.retries"] >= 1

    def test_wedged_worker_trips_deadline(self):
        # The injected hang (10s) never finishes inside the 0.5s task
        # deadline; the pool is killed, respawned, and the retry's fresh
        # occurrence runs clean.
        config = _config(
            task_timeout_seconds=0.5,
            fault_plan=FaultPlan.of(worker_hang=[0], hang_seconds=10.0),
        )
        executor = ResilientExecutor(workers=2, config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [7]) == [14]
        counters = instrumentation.counters()
        assert counters["resilience.deadline_exceeded"] >= 1
        assert counters["resilience.pool_respawns"] >= 1

    def test_corrupt_result_retried_in_pool(self):
        config = _config(fault_plan=FaultPlan.of(corrupt_result=[0]))
        executor = ResilientExecutor(workers=2, config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [5, 6]) == [10, 12]
        assert instrumentation.counters()["resilience.corrupt_results"] == 1

    def test_ladder_degrades_to_serial_and_completes(self):
        # Crashes at occurrences 0-2 defeat the pool's whole retry
        # budget (initial + 1 retry) and the first serial attempt; the
        # serial retry's occurrence 3 is clean, so the map still
        # completes — one rung down, zero results lost.
        config = _config(
            max_retries=1, fault_plan=FaultPlan.of(worker_crash=range(3))
        )
        executor = ResilientExecutor(workers=2, config=config)
        instrumentation = _instrumented(executor)
        assert _map(executor, _double, [8]) == [16]
        counters = instrumentation.counters()
        assert counters["resilience.serial_fallbacks"] == 1

    def test_domain_error_propagates_from_pool(self):
        executor = ResilientExecutor(workers=2, config=_config())
        with pytest.raises(InfeasiblePlacementError):
            _map(executor, _raise_domain_error, [1])

    def test_pool_broken_on_submit_recovers_without_waiting(self):
        # A pool that breaks while accepting work: the attempt must
        # hand the whole batch back as retryable and respawn — never
        # wait on futures the dead pool already cancelled.
        class _BrokenAtSubmission:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died before submission")

            def shutdown(self, *args, **kwargs):
                return None

        executor = ResilientExecutor(workers=2, config=_config())
        instrumentation = _instrumented(executor)
        with executor.session() as session:
            session._kill_pool()
            session._pool = _BrokenAtSubmission()
            assert session.map(_double, [1, 2, 3]) == [2, 4, 6]
        counters = instrumentation.counters()
        assert counters["resilience.pool_respawns"] == 1
        assert counters["resilience.retries"] == 1


class TestEngineIntegration:
    def test_resilient_engine_wires_instrumentation(self):
        config = _config(fault_plan=FaultPlan.of(corrupt_result=[0]))
        with ExecutionEngine.with_workers(None, config) as engine:
            assert engine.executor.name == "resilient"
            with engine.session() as session:
                assert session.map(_double, [4]) == [8]
        assert engine.instrumentation.counters()[
            "resilience.corrupt_results"
        ] == 1


#: Plans a tiny ensemble on each serial engine (the plain one and the
#: resilient one at one worker, sharded so the fan-out site runs), then
#: prints which of the process pool's modules were ever imported.
_SERIAL_PLAN_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine import ExecutionEngine
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.workloads.ensemble import scaled_ensemble

demands = scaled_ensemble(6, seed=3, weeks=1, slot_minutes=60)
policy = QoSPolicy(
    normal=case_study_qos(m_degr_percent=0),
    failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
)
search = GeneticSearchConfig(
    seed=0, max_generations=2, stall_generations=1, population_size=4
)
for engine, sharding in (
    (ExecutionEngine.serial(), "off"),
    (ExecutionEngine.with_workers(1), 2),
):
    ROpus(
        PoolCommitments.of(theta=0.95),
        ResourcePool(homogeneous_servers(6, cpus=32, racks=2)),
        search_config=search,
        engine=engine,
        sharding=sharding,
    ).plan(demands, policy)
pool_modules = ("concurrent.futures.process", "multiprocessing")
print(",".join(name for name in pool_modules if name in sys.modules))
"""


class TestSerialPlansNeverImportThePool:
    def test_no_pool_module_is_imported(self):
        src = Path(resilience.__file__).resolve().parents[2]
        completed = subprocess.run(
            [sys.executable, "-c", _SERIAL_PLAN_SCRIPT.format(src=str(src))],
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.strip() == ""
