"""Deterministic fault injection for the execution stack.

R-Opus is a *performability* framework — Section VI plans capacity for
the case where a node dies mid-operation — so its own pipeline must
survive the same class of events. This module makes every recovery path
in :mod:`repro.engine.resilience` exercisable on demand and, crucially,
*reproducibly*: a :class:`FaultPlan` decides ahead of time exactly which
occurrences of which fault sites fire, derived from a seed through
:mod:`repro.util.rng` (never wall-clock randomness, so the ROP002
invariant holds and a chaos run replays bit-identically).

Model
-----
Each fault kind has a *site* in the execution stack and a driver-side
occurrence counter (:class:`FaultClock`). Every time execution passes a
site — one work-unit invocation — the site's counter advances by one,
and the plan is consulted: ``occurrence in plan.occurrences(kind)``
decides whether the fault fires. Retried work units consume *fresh*
occurrence numbers, so a fault fires for its scheduled occurrence and
the retry proceeds clean — exactly the transient-failure shape the
resilience layer is built for.
A fault that should defeat every retry is expressed by scheduling a
contiguous run of occurrences.

The plan is plain data (picklable, hashable) so the parallel executor
can ship each work unit's fault decisions to the worker that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from repro.exceptions import ROpusError
from repro.units import Probability
from repro.util.floats import is_zero
from repro.util.rng import SeedSequenceFactory


class FaultKind(Enum):
    """The injectable fault classes and the site each one strikes."""

    #: A worker process dies mid-task (``SIGKILL`` semantics). Site:
    #: one occurrence per work-unit invocation.
    WORKER_CRASH = "worker_crash"
    #: A worker wedges and stops making progress. Site: per invocation.
    WORKER_HANG = "worker_hang"
    #: A worker returns garbage instead of its result. Site: per
    #: invocation.
    CORRUPT_RESULT = "corrupt_result"


class InjectedFault(ROpusError):
    """Base class for failures raised by the injection harness."""


class InjectedWorkerCrash(InjectedFault):
    """Stands in for a SIGKILLed worker on backends without processes."""


class InjectedWorkerHang(InjectedFault):
    """Stands in for a wedged worker on backends without processes."""


class InjectedCheckpointFailure(InjectedFault):
    """A checkpoint write was made to fail (raised by a
    :class:`~repro.engine.checkpoint.Checkpointer` ``fault_hook``)."""


@dataclass(frozen=True)
class CorruptedResult:
    """The garbage value a corrupt-result fault substitutes for a result.

    The resilience layer recognises instances of this marker in a map's
    results and treats the producing work unit as failed-retryable; any
    caller that bypasses the resilience layer will instead fail loudly
    downstream (the marker supports none of the result protocols).
    """

    occurrence: int


def seeded_occurrences(
    seed: int, label: str, rate: Probability, horizon: int
) -> frozenset[int]:
    """Deterministically choose which of ``horizon`` occurrences fire.

    Each occurrence fires independently with probability ``rate``; the
    draw stream is derived from ``(seed, label)`` through
    :class:`~repro.util.rng.SeedSequenceFactory`, so distinct fault
    kinds get independent—but individually reproducible—schedules.
    """
    if not 0.0 <= rate <= 1.0:
        raise ROpusError(f"fault rate must be in [0, 1], got {rate}")
    if horizon < 0:
        raise ROpusError(f"fault horizon must be >= 0, got {horizon}")
    if is_zero(rate) or horizon == 0:
        return frozenset()
    rng = SeedSequenceFactory(seed).generator("faults", label)
    draws = rng.random(horizon)
    return frozenset(int(index) for index in (draws < rate).nonzero()[0])


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic schedule of faults for one run.

    ``schedule`` maps each fault kind to the set of occurrence indices
    at which it fires. ``hang_seconds`` is how long an injected hang
    actually blocks on process backends (long enough to trip any sane
    task deadline, short enough that an orphaned sleeper exits soon).
    """

    schedule: Mapping[FaultKind, frozenset[int]] = field(default_factory=dict)
    hang_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ROpusError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )
        for kind, occurrences in self.schedule.items():
            if not isinstance(kind, FaultKind):
                raise ROpusError(f"unknown fault kind {kind!r}")
            if any(occurrence < 0 for occurrence in occurrences):
                raise ROpusError(
                    f"fault occurrences must be >= 0 for {kind.value}"
                )
        # Freeze the mapping shape so the plan is safely shareable.
        object.__setattr__(
            self,
            "schedule",
            {
                kind: frozenset(occurrences)
                for kind, occurrences in self.schedule.items()
            },
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: no faults ever fire."""
        return cls()

    @classmethod
    def of(
        cls,
        *,
        hang_seconds: float = 5.0,
        **occurrences: Iterable[int],
    ) -> "FaultPlan":
        """Build a plan from explicit occurrence sets, keyed by kind value.

        >>> plan = FaultPlan.of(worker_crash=[0, 3])
        >>> plan.fires(FaultKind.WORKER_CRASH, 3)
        True
        >>> plan.fires(FaultKind.WORKER_CRASH, 1)
        False
        """
        by_value = {kind.value: kind for kind in FaultKind}
        schedule: dict[FaultKind, frozenset[int]] = {}
        for name, indices in occurrences.items():
            if name not in by_value:
                raise ROpusError(f"unknown fault kind {name!r}")
            schedule[by_value[name]] = frozenset(int(i) for i in indices)
        return cls(schedule=schedule, hang_seconds=hang_seconds)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        horizon: int,
        crash_rate: Probability = 0.0,
        hang_rate: Probability = 0.0,
        corrupt_rate: Probability = 0.0,
        hang_seconds: float = 5.0,
    ) -> "FaultPlan":
        """A reproducible random plan: each kind fires at its own rate.

        ``horizon`` bounds the occurrence indices considered per kind;
        occurrences past the horizon never fire. The same ``seed``
        always produces the same plan.
        """
        rates = {
            FaultKind.WORKER_CRASH: crash_rate,
            FaultKind.WORKER_HANG: hang_rate,
            FaultKind.CORRUPT_RESULT: corrupt_rate,
        }
        schedule = {
            kind: seeded_occurrences(seed, kind.value, rate, horizon)
            for kind, rate in rates.items()
            if rate > 0.0
        }
        return cls(schedule=schedule, hang_seconds=hang_seconds)

    # ------------------------------------------------------------------
    def occurrences(self, kind: FaultKind) -> frozenset[int]:
        return self.schedule.get(kind, frozenset())

    def fires(self, kind: FaultKind, occurrence: int) -> bool:
        """Whether ``kind`` fires at the given site occurrence."""
        return occurrence in self.occurrences(kind)

    @property
    def empty(self) -> bool:
        return not any(self.schedule.values())


class FaultClock:
    """Driver-side occurrence counters, one per fault site.

    The clock is what makes injection deterministic under retries and
    arbitrary chunking: occurrence numbers are assigned in the driver,
    in submission order, before work fans out — which worker executes an
    invocation never changes which faults it suffers.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def take(self, site: str, count: int = 1) -> range:
        """Consume ``count`` occurrence numbers at ``site``."""
        start = self._counts.get(site, 0)
        self._counts[site] = start + count
        return range(start, start + count)


__all__ = [
    "CorruptedResult",
    "FaultClock",
    "FaultKind",
    "FaultPlan",
    "InjectedCheckpointFailure",
    "InjectedFault",
    "InjectedWorkerCrash",
    "InjectedWorkerHang",
    "seeded_occurrences",
]
