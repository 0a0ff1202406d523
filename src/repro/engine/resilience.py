"""Fault-tolerant execution: retries, timeouts, and degradation ladders.

A bare :class:`concurrent.futures.ProcessPoolExecutor` dies with the
first worker: a SIGKILLed process breaks the pool, a wedged worker
blocks ``map`` forever, and either one kills a multi-hour planning run.
:class:`ResilientExecutor` — the only code in the package that owns a
process pool — wraps the fan-out contract (``fn(shared, item)`` work
units, order-preserving ``map``) with the recovery machinery a
performability framework owes itself:

* **bounded retries** with exponential backoff and *deterministic*
  jitter (seeded through :mod:`repro.util.rng`; no wall-clock
  randomness, so ROP002 stays clean and chaos runs replay exactly);
* **stuck-worker detection**: when no work unit completes within the
  task deadline, the pool's processes are killed and respawned, and the
  unfinished units are retried;
* **``BrokenProcessPool`` recovery**: a crashed worker costs one pool
  respawn and a retry of the unfinished units, not the run;
* **graceful degradation**: a process pool that keeps failing falls
  back to serial in-driver execution, counting each step on the
  instrumentation instead of dying.

Work units are pure functions of their inputs (the executor contract),
so a retried unit recomputes exactly the result the failed attempt
would have produced; resilience never changes results, only whether a
run survives to produce them. Only *infrastructure* failures are
retried — domain errors (:class:`~repro.exceptions.ROpusError`
subclasses raised by the work function, bad-input ``TypeError``\\ s)
propagate immediately, because retrying deterministic code on the same
input cannot fix them.

Fault injection from :mod:`repro.engine.faults` hooks in here: items
are tagged with site-occurrence numbers in the driver (deterministic
under any chunking), and the worker-side wrapper consults the
:class:`~repro.engine.faults.FaultPlan` to crash, hang, or corrupt
exactly the scheduled invocations.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.engine import executor as _executor_module
from repro.engine.executor import Executor, ExecutorSession, WorkFn
from repro.engine.faults import (
    CorruptedResult,
    FaultClock,
    FaultKind,
    FaultPlan,
    InjectedFault,
    InjectedWorkerCrash,
    InjectedWorkerHang,
)
from repro.engine.instrumentation import Instrumentation
from repro.exceptions import ConfigurationError, ResilienceError

# The process pool (and with it ``multiprocessing``, ``socket`` and
# ``subprocess``) is imported only where a pool is spawned or its
# failure handled, so a serial plan never loads it.
if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Exit status an injected worker crash dies with (SIGKILL-alike: the
#: pool observes an abrupt worker death, exactly as if the OOM killer
#: or an operator's ``kill -9`` took the process).
_CRASH_EXIT_STATUS = 139

#: Retry ``k`` sleeps ``base * multiplier**k``, stretched by up to the
#: jitter fraction; the stretch is drawn deterministically from the
#: seed so two replicas of one run sleep identically.
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_MULTIPLIER = 2.0
_BACKOFF_JITTER = 0.25
_JITTER_SEED = 0


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the fault-tolerant execution layer.

    Attributes
    ----------
    max_retries:
        Bounded retry budget *per degradation rung*: an initial attempt
        plus at most this many retries run on the process pool before
        the ladder degrades to serial, where the same budget applies
        once more before :class:`~repro.exceptions.ResilienceError`.
    task_timeout_seconds:
        Stuck-worker deadline: when no in-flight work unit completes
        for this long, the pool is presumed wedged, its processes are
        killed, and the unfinished units are retried. ``None`` disables
        the deadline (the default: plain runs never pay a timer).
    fault_plan:
        Deterministic fault schedule to inject (``None``: no faults).
    sleep:
        Injectable sleeper so tests assert exact backoff sequences
        without waiting through them.
    """

    max_retries: int = 2
    task_timeout_seconds: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    sleep: Callable[[float], None] = field(default=time.sleep, compare=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if (
            self.task_timeout_seconds is not None
            and not self.task_timeout_seconds > 0
        ):
            raise ConfigurationError(
                "task_timeout_seconds must be > 0 when set, got "
                f"{self.task_timeout_seconds}"
            )

    @property
    def plan(self) -> FaultPlan:
        return self.fault_plan if self.fault_plan is not None else FaultPlan.none()


def backoff_delay(retry_index: int) -> float:
    """The (deterministically jittered) sleep before retry ``retry_index``.

    >>> 0.05 <= backoff_delay(0) <= 0.0625
    True
    >>> backoff_delay(2) == backoff_delay(2)
    True
    """
    from repro.util.rng import SeedSequenceFactory

    base = _BACKOFF_BASE_SECONDS * _BACKOFF_MULTIPLIER**retry_index
    rng = SeedSequenceFactory(_JITTER_SEED).generator("backoff", retry_index)
    return base * (1.0 + _BACKOFF_JITTER * float(rng.random()))


# ----------------------------------------------------------------------
# Worker-side invocation with fault hooks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FaultTags:
    """The per-map slice of the fault plan shipped to workers.

    ``simulate`` selects in-process semantics (raise typed exceptions)
    for backends without worker processes to kill; process workers die
    and sleep for real so the driver-side recovery paths face the same
    signals production failures produce.
    """

    crash: frozenset[int] = frozenset()
    hang: frozenset[int] = frozenset()
    corrupt: frozenset[int] = frozenset()
    hang_seconds: float = 5.0
    simulate: bool = True

    @classmethod
    def from_plan(cls, plan: FaultPlan, simulate: bool) -> "_FaultTags":
        return cls(
            crash=plan.occurrences(FaultKind.WORKER_CRASH),
            hang=plan.occurrences(FaultKind.WORKER_HANG),
            corrupt=plan.occurrences(FaultKind.CORRUPT_RESULT),
            hang_seconds=plan.hang_seconds,
            simulate=simulate,
        )

    @property
    def empty(self) -> bool:
        return not (self.crash or self.hang or self.corrupt)


def _invoke_tagged(
    fn: WorkFn, tags: _FaultTags, shared: Any, tagged_item: tuple[int, Any]
) -> Any:
    """Run one work unit, applying any fault scheduled at its occurrence."""
    occurrence, item = tagged_item
    if occurrence in tags.crash:
        if tags.simulate:
            raise InjectedWorkerCrash(
                f"injected worker crash at occurrence {occurrence}"
            )
        # Die the way a SIGKILLed worker dies: abruptly, with no
        # cleanup, so the pool reports BrokenProcessPool to the driver.
        os._exit(_CRASH_EXIT_STATUS)
    if occurrence in tags.hang:
        if tags.simulate:
            raise InjectedWorkerHang(
                f"injected worker hang at occurrence {occurrence}"
            )
        time.sleep(tags.hang_seconds)
    if occurrence in tags.corrupt:
        return CorruptedResult(occurrence)
    return fn(shared, item)


def _invoke_tagged_in_pool(
    fn: WorkFn, tags: _FaultTags, tagged_item: tuple[int, Any]
) -> Any:
    """Process-pool entry point: the shared payload was installed by the
    pool initializer (see :func:`repro.engine.executor._install_shared`)."""
    return _invoke_tagged(
        fn, tags, _executor_module._WORKER_SHARED, tagged_item
    )


# ----------------------------------------------------------------------
# Attempt outcomes
# ----------------------------------------------------------------------
@dataclass
class _AttemptOutcome:
    """What one map attempt produced, split by how each item ended."""

    completed: dict[int, Any] = field(default_factory=dict)
    retryable: list[int] = field(default_factory=list)
    fatal: dict[int, BaseException] = field(default_factory=dict)


class _ResilientSession(ExecutorSession):
    """One fan-out context with recovery wrapped around every map."""

    def __init__(self, owner: "ResilientExecutor", shared: Any):
        self._owner = owner
        self._config = owner.config
        self._shared = shared
        self._pool: Optional[ProcessPoolExecutor] = None
        self._rung = "parallel" if owner.workers > 1 else "serial"
        self.parallelism = owner.workers if self._rung == "parallel" else 1
        if self._rung == "parallel":
            self._pool = self._spawn_pool()

    # -- instrumentation plumbing --------------------------------------
    def _count(self, name: str, increment: float = 1) -> None:
        instrumentation = self._owner.instrumentation
        if instrumentation is not None:
            instrumentation.count(name, increment)

    # -- pool lifecycle ------------------------------------------------
    def _spawn_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self._owner.workers,
            initializer=_executor_module._install_shared,
            initargs=(self._shared,),
        )

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on wedged workers."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _respawn_pool(self) -> None:
        self._kill_pool()
        self._count("resilience.pool_respawns")
        self._pool = self._spawn_pool()

    def _degrade_to_serial(self) -> None:
        self._kill_pool()
        self._rung = "serial"
        self.parallelism = 1
        self._count("resilience.serial_fallbacks")

    def close(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- the resilient map ---------------------------------------------
    def map(self, fn: WorkFn, items: Sequence[Any]) -> list[Any]:
        items = list(items)
        if not items:
            return []
        results: dict[int, Any] = {}
        pending = list(range(len(items)))
        retries_this_rung = 0
        while pending:
            outcome = self._run_attempt(fn, items, pending)
            results.update(outcome.completed)
            if outcome.fatal:
                self._raise_fatal(outcome)
            pending = sorted(outcome.retryable)
            if not pending:
                break
            if retries_this_rung >= self._config.max_retries:
                if self._rung == "parallel":
                    # Ladder: the pool keeps failing — run the rest in
                    # the driver, where there is no pool to break.
                    self._degrade_to_serial()
                    retries_this_rung = 0
                    continue
                raise ResilienceError(
                    f"{len(pending)} work units still failing after "
                    f"{self._config.max_retries} retries on the serial "
                    "fallback; giving up"
                )
            delay = backoff_delay(retries_this_rung)
            retries_this_rung += 1
            self._count("resilience.retries")
            self._config.sleep(delay)
        return [results[index] for index in range(len(items))]

    def _raise_fatal(self, outcome: _AttemptOutcome) -> None:
        first_index = min(outcome.fatal)
        raise outcome.fatal[first_index]

    def _tag(self, pending: Sequence[int]) -> list[tuple[int, int]]:
        """Assign a fresh worker-site occurrence to each pending item.

        Returns ``(occurrence, item index)`` pairs. Numbering happens
        driver-side in submission order, so the schedule is independent
        of which worker runs what — and retried items draw *new*
        occurrences, which is what makes scheduled faults transient.
        """
        occurrences = self._owner.clock.take("worker", len(pending))
        return list(zip(occurrences, pending))

    def _run_attempt(
        self, fn: WorkFn, items: Sequence[Any], pending: Sequence[int]
    ) -> _AttemptOutcome:
        if self._rung == "serial":
            return self._attempt_serial(fn, items, pending)
        return self._attempt_parallel(fn, items, pending)

    # -- serial rung ---------------------------------------------------
    def _attempt_serial(
        self, fn: WorkFn, items: Sequence[Any], pending: Sequence[int]
    ) -> _AttemptOutcome:
        tags = _FaultTags.from_plan(self._config.plan, simulate=True)
        outcome = _AttemptOutcome()
        for occurrence, index in self._tag(pending):
            try:
                value = _invoke_tagged(
                    fn, tags, self._shared, (occurrence, items[index])
                )
            except InjectedWorkerHang:
                self._count("resilience.faults_injected")
                self._count("resilience.deadline_exceeded")
                outcome.retryable.append(index)
            except InjectedFault:
                self._count("resilience.faults_injected")
                outcome.retryable.append(index)
            except (KeyboardInterrupt, SystemExit):
                # Operator interrupts are never "an item's outcome":
                # propagate immediately instead of finishing the batch.
                raise
            except BaseException as error:  # noqa: B036 - classified below
                # Fatal errors abort the whole map (partial results are
                # discarded), so evaluating the remaining items would
                # only delay the raise.
                outcome.fatal[index] = error
                break
            else:
                if isinstance(value, CorruptedResult):
                    self._count("resilience.faults_injected")
                    self._count("resilience.corrupt_results")
                    outcome.retryable.append(index)
                else:
                    outcome.completed[index] = value
        return outcome

    # -- parallel rung -------------------------------------------------
    def _attempt_parallel(
        self, fn: WorkFn, items: Sequence[Any], pending: Sequence[int]
    ) -> _AttemptOutcome:
        from concurrent.futures.process import BrokenProcessPool

        tags = _FaultTags.from_plan(self._config.plan, simulate=False)
        wrapped = partial(_invoke_tagged_in_pool, fn, tags)
        outcome = _AttemptOutcome()
        futures = {}
        try:
            for occurrence, index in self._tag(pending):
                futures[
                    self._pool.submit(wrapped, (occurrence, items[index]))
                ] = index
        except BrokenProcessPool:
            # The pool broke before (or while) accepting work. The
            # respawn cancels whatever was already handed to the dead
            # pool (waiting on those futures would raise
            # CancelledError), so the whole batch retries on the fresh
            # pool — work units are pure, recomputing is safe.
            outcome.retryable.extend(pending)
            self._respawn_pool()
            return outcome
        in_flight = set(futures)
        pool_broken = False
        while in_flight:
            done, in_flight = wait(
                in_flight,
                timeout=self._config.task_timeout_seconds,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Deadline passed with zero progress: stuck worker(s).
                # Kill the pool (reclaiming any wedged process) and
                # retry everything still in flight.
                self._count("resilience.deadline_exceeded")
                for future in in_flight:
                    outcome.retryable.append(futures[future])
                self._respawn_pool()
                return outcome
            for future in done:
                index = futures[future]
                try:
                    error = future.exception()
                except CancelledError:
                    # A cancelled future (its pool was torn down by a
                    # concurrent recovery path) is just lost work.
                    outcome.retryable.append(index)
                    continue
                if error is None:
                    value = future.result()
                    if isinstance(value, CorruptedResult):
                        self._count("resilience.faults_injected")
                        self._count("resilience.corrupt_results")
                        outcome.retryable.append(index)
                    else:
                        outcome.completed[index] = value
                elif isinstance(error, BrokenProcessPool):
                    # One worker died; the whole pool is unusable and
                    # every unfinished unit fails with this error.
                    outcome.retryable.append(index)
                    pool_broken = True
                elif isinstance(error, InjectedFault):
                    self._count("resilience.faults_injected")
                    outcome.retryable.append(index)
                else:
                    outcome.fatal[index] = error
            if pool_broken:
                for future in in_flight:
                    outcome.retryable.append(futures[future])
                self._respawn_pool()
                return outcome
        return outcome


class ResilientExecutor(Executor):
    """A fan-out backend that survives worker failure.

    ``workers in (None, 1)`` runs work units in the driver (the serial
    rung only — injected faults are simulated as typed exceptions);
    larger counts open a process pool with the full recovery ladder.
    """

    name = "resilient"

    def __init__(
        self,
        workers: int | None = None,
        config: ResilienceConfig | None = None,
    ):
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = 1 if workers is None else workers
        self.config = config if config is not None else ResilienceConfig()
        self.instrumentation: Optional[Instrumentation] = None
        self.clock = FaultClock()

    def attach_instrumentation(self, instrumentation: Instrumentation) -> None:
        """Called by the owning engine so recovery telemetry lands in
        the same sink as stage timings and kernel counters."""
        self.instrumentation = instrumentation

    def session(self, shared: Any = None) -> ExecutorSession:
        return _ResilientSession(self, shared)


__all__ = [
    "ResilienceConfig",
    "ResilientExecutor",
    "backoff_delay",
]
