"""Shared fixtures for the R-Opus test suite."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core.cos import CoSCommitment, PoolCommitments
from repro.core.qos import ApplicationQoS, DegradedSpec, QoSRange
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec


def pytest_sessionstart(session):
    """Arm the runtime leak tracker when ``ROPUS_LEAKTRACK=1``.

    The tracker wraps the acquire points (pool spawn, temp dirs) and records acquisition stacks; the sessionfinish
    hook below prints anything still open and fails an otherwise green
    session, which makes CI's ``runtime-checks`` job a leak gate.
    """
    from repro.analysis.leaktrack import maybe_install

    maybe_install()


def pytest_sessionfinish(session, exitstatus):
    from repro.analysis import leaktrack

    if leaktrack.installed() and leaktrack.report() and exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _per_test_deadline():
    """Optional per-test deadline, for CI hang containment.

    The resilience suite deliberately wedges and kills worker processes;
    a regression there shows up as a hang, which would otherwise stall
    the whole run until the job-level timeout. Setting
    ``ROPUS_TEST_TIMEOUT`` (seconds) arms a SIGALRM per test so the hang
    fails loudly in-place instead. Unset (the default, and always on
    non-main threads where SIGALRM cannot be armed) this fixture is
    free.
    """
    raw = os.environ.get("ROPUS_TEST_TIMEOUT", "")
    try:
        seconds = int(raw)
    except ValueError:
        seconds = 0
    if seconds <= 0:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded ROPUS_TEST_TIMEOUT={seconds}s (likely hang)"
        )

    try:
        previous = signal.signal(signal.SIGALRM, _expired)
    except ValueError:  # pragma: no cover - not on the main thread
        yield
        return
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def calendar() -> TraceCalendar:
    """One week at 5-minute resolution (2016 observations)."""
    return TraceCalendar(weeks=1, slot_minutes=5)


@pytest.fixture
def two_week_calendar() -> TraceCalendar:
    return TraceCalendar(weeks=2, slot_minutes=5)


@pytest.fixture
def coarse_calendar() -> TraceCalendar:
    """One week at hourly resolution — small, fast traces (168 slots)."""
    return TraceCalendar(weeks=1, slot_minutes=60)


@pytest.fixture
def constant_trace(coarse_calendar) -> DemandTrace:
    return DemandTrace(
        "constant", [2.0] * coarse_calendar.n_observations, coarse_calendar
    )


@pytest.fixture
def bursty_trace(coarse_calendar) -> DemandTrace:
    """Mostly 1.0 with a few isolated and contiguous spikes to 5-8."""
    values = np.ones(coarse_calendar.n_observations)
    values[10] = 5.0
    values[50:54] = 6.0
    values[100:110] = 8.0
    return DemandTrace("bursty", values, coarse_calendar)


@pytest.fixture
def sample_qos() -> ApplicationQoS:
    """The paper's case-study QoS: (0.5, 0.66), 3% at <=0.9."""
    return ApplicationQoS(
        QoSRange(0.5, 0.66),
        DegradedSpec(m_degr_percent=3.0, u_degr=0.9),
    )


@pytest.fixture
def strict_qos() -> ApplicationQoS:
    """No degradation tolerated."""
    return ApplicationQoS(QoSRange(0.5, 0.66))


@pytest.fixture
def commitments_95() -> PoolCommitments:
    return PoolCommitments(CoSCommitment(theta=0.95, deadline_minutes=60))


@pytest.fixture
def commitments_60() -> PoolCommitments:
    return PoolCommitments(CoSCommitment(theta=0.6, deadline_minutes=60))


@pytest.fixture
def small_ensemble(coarse_calendar) -> list[DemandTrace]:
    """Six small generated workloads on the coarse calendar."""
    generator = WorkloadGenerator(seed=99)
    specs = [
        WorkloadSpec(name=f"wl-{index}", peak_cpus=1.0 + 0.5 * index)
        for index in range(6)
    ]
    return generator.generate_many(specs, coarse_calendar)
