"""Tests for the pluggable execution backends."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import (
    ExecutionEngine,
    ResilienceConfig,
    ResilientExecutor,
    SerialExecutor,
)
from repro.exceptions import ConfigurationError


def _add_offset(shared, item):
    """Module-level work unit so the parallel backend can pickle it."""
    offset = shared if shared is not None else 0
    return item + offset


@dataclass(frozen=True)
class _ArrayPayload:
    """A shared payload carrying an ndarray, like the shard planner's own."""

    offsets: np.ndarray


def _offset_at(shared, item):
    return float(shared.offsets[item]) + item


def _square(shared, item):
    return item * item


def _exit_once_then_square(shared, item):
    """Kill the worker on the first call only (gated on a flag file)."""
    try:
        os.unlink(shared)
    except FileNotFoundError:
        return item * item
    os._exit(1)


def _map(executor, work, items, shared=None):
    with executor.session(shared) as session:
        return session.map(work, items)


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert _map(SerialExecutor(), _square, [3, 1, 2]) == [9, 1, 4]

    def test_shared_payload_reaches_work_units(self):
        executor = SerialExecutor()
        assert _map(executor, _add_offset, [1, 2], shared=10) == [11, 12]

    def test_empty_items(self):
        assert _map(SerialExecutor(), _square, []) == []

    def test_session_reuse(self):
        with SerialExecutor().session(shared=100) as session:
            assert session.map(_add_offset, [1]) == [101]
            assert session.map(_add_offset, [2]) == [102]


class TestParallelExecutor:
    """The one pool backend, reached the way callers reach it."""

    def test_map_matches_serial(self):
        items = list(range(17))
        with ExecutionEngine.with_workers(2) as engine:
            assert _map(engine, _square, items) == [i * i for i in items]

    def test_shared_payload_broadcast(self):
        payload = _ArrayPayload(np.array([10.0, 20.0, 30.0, 40.0]))
        items = [0, 1, 2, 3]
        with ExecutionEngine.with_workers(2) as engine:
            results = _map(engine, _offset_at, items, shared=payload)
        assert results == [10.0, 21.0, 32.0, 43.0]

    def test_session_amortises_broadcast(self):
        payload = _ArrayPayload(np.arange(4096, dtype=np.float64))
        with ExecutionEngine.with_workers(2) as engine:
            with engine.session(shared=payload) as session:
                assert session.map(_offset_at, [1]) == [2.0]
                assert session.map(_offset_at, [2, 4095]) == [4.0, 8190.0]
        counters = engine.instrumentation.counters()
        assert {name for name in counters if name.startswith("broadcast.")} == {
            "broadcast.sessions"
        }
        assert counters["broadcast.sessions"] == 1

    def test_empty_items(self):
        with ExecutionEngine.with_workers(2) as engine:
            with engine.session() as session:
                assert session.map(_square, []) == []

    def test_parallelism_counts_the_workers(self):
        with ExecutionEngine.with_workers(2) as engine:
            with engine.session(shared=10) as session:
                assert session.parallelism == 2
                results = session.map(_add_offset, [1, 2, 3, 4, 5])
        assert results == [11, 12, 13, 14, 15]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            with ExecutionEngine.with_workers(0):
                pass

    def test_killed_worker_is_survived_without_resilience_flags(self, tmp_path):
        # No config, no flags: the pool backend is the resilient one, so
        # a worker that dies mid-map costs one respawn, not the run.
        flag = tmp_path / "crash-once"
        flag.touch()
        with ExecutionEngine.with_workers(2) as engine:
            results = _map(
                engine, _exit_once_then_square, [1, 2, 3, 4], shared=str(flag)
            )
        assert results == [1, 4, 9, 16]
        counters = engine.instrumentation.counters()
        assert counters["resilience.pool_respawns"] == 1


class TestMakeExecutor:
    """``with_workers`` picks the backend from the worker count alone."""

    def test_none_is_serial(self):
        with ExecutionEngine.with_workers(None) as engine:
            assert isinstance(engine.executor, SerialExecutor)

    def test_one_is_serial(self):
        with ExecutionEngine.with_workers(1) as engine:
            assert isinstance(engine.executor, SerialExecutor)

    def test_many_is_parallel(self):
        with ExecutionEngine.with_workers(3) as engine:
            assert isinstance(engine.executor, ResilientExecutor)
            assert engine.executor.workers == 3

    def test_config_alone_selects_the_recovery_wrapper(self):
        with ExecutionEngine.with_workers(None, ResilienceConfig()) as engine:
            assert isinstance(engine.executor, ResilientExecutor)
            with engine.session() as session:
                assert session.parallelism == 1

    def test_rejects_nonpositive(self):
        for workers in (0, -2):
            with pytest.raises(ConfigurationError):
                with ExecutionEngine.with_workers(workers):
                    pass


class TestExecutionEngine:
    def test_default_engine_is_serial(self):
        engine = ExecutionEngine()
        assert engine.executor.name == "serial"
        assert engine.instrumentation.timings() == {}

    def test_with_workers_selects_backend(self):
        with ExecutionEngine.with_workers(None) as engine:
            assert engine.executor.name == "serial"
        with ExecutionEngine.with_workers(1) as engine:
            assert engine.executor.name == "serial"
        with ExecutionEngine.with_workers(2) as engine:
            assert engine.executor.name == "resilient"

    def test_repr_names_backend(self):
        assert "serial" in repr(ExecutionEngine.serial())
