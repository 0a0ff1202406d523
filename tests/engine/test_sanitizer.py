"""Runtime determinism-sanitizer coverage.

The per-site rules ROP001/ROP002 and the sanitizer police the same
contract from opposite sides; the pool tests here close the loop by
driving a violating work unit through a real process pool and asserting
the violation surfaces as :class:`DeterminismViolation`, not as silent
nondeterminism.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.engine import ExecutionEngine
from repro.exceptions import DeterminismViolation, ROpusError


@pytest.fixture()
def armed():
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()


def _clean_worker(shared, item):
    rng = np.random.default_rng(shared + item)
    return float(rng.random())


def _wall_clock_worker(shared, item):
    return time.time() + item


def _ambient_rng_worker(shared, item):
    return random.random() + item


class TestInstallUninstall:
    def test_install_blocks_ambient_entry_points(self, armed):
        with pytest.raises(DeterminismViolation):
            time.time()
        with pytest.raises(DeterminismViolation):
            random.random()
        with pytest.raises(DeterminismViolation):
            np.random.rand()
        with pytest.raises(DeterminismViolation):
            np.random.default_rng()

    def test_sanctioned_paths_stay_open(self, armed):
        assert time.perf_counter() > 0
        assert time.monotonic() > 0
        rng = np.random.default_rng(42)
        assert 0.0 <= rng.random() < 1.0
        assert 0.0 <= random.Random(7).random() < 1.0
        rng_from_seq = np.random.default_rng(np.random.SeedSequence(3))
        assert 0.0 <= rng_from_seq.random() < 1.0

    def test_install_is_idempotent(self, armed):
        sanitizer.install()
        sanitizer.uninstall()
        assert not sanitizer.installed()
        # A second uninstall is a no-op, and the originals are back.
        sanitizer.uninstall()
        assert time.time() > 0
        assert 0.0 <= random.random() < 1.0

    def test_uninstall_restores_originals(self):
        before = time.time
        sanitizer.install()
        sanitizer.uninstall()
        assert time.time is before

    def test_violation_is_a_library_error(self, armed):
        with pytest.raises(ROpusError):
            time.time()

    def test_maybe_install_respects_env(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        assert sanitizer.maybe_install() is False
        assert not sanitizer.installed()
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        try:
            assert sanitizer.maybe_install() is True
            assert sanitizer.installed()
        finally:
            sanitizer.uninstall()


class TestPoolWiring:
    """ROPUS_SANITIZE=1 arms every worker through the pool initializer."""

    @pytest.fixture()
    def sanitized_env(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")

    def test_clean_work_runs_sanitized(self, sanitized_env):
        with ExecutionEngine.with_workers(2) as engine:
            with engine.session(100) as session:
                parallel = list(session.map(_clean_worker, [1, 2, 3]))
        serial = [_clean_worker(100, item) for item in [1, 2, 3]]
        assert parallel == serial

    def test_wall_clock_worker_raises(self, sanitized_env):
        with ExecutionEngine.with_workers(2) as engine:
            with pytest.raises(DeterminismViolation):
                with engine.session(0) as session:
                    # The impure worker is the point: the sanitizer must
                    # stop it at runtime.
                    list(session.map(_wall_clock_worker, [1]))

    def test_ambient_rng_worker_raises(self, sanitized_env):
        with ExecutionEngine.with_workers(2) as engine:
            with pytest.raises(DeterminismViolation):
                with engine.session(0) as session:
                    # The impure worker is the point (see above).
                    list(session.map(_ambient_rng_worker, [1]))

    def test_driver_process_stays_unpatched(self, sanitized_env):
        with ExecutionEngine.with_workers(2) as engine:
            with engine.session(0) as session:
                list(session.map(_clean_worker, [1]))
        # The sanitizer armed the workers, never the driver.
        assert not sanitizer.installed()
        assert time.time() > 0
