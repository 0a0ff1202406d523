"""Pluggable execution backends for the pipeline's fan-out work.

The hierarchical tier's shard waves are the one fan-out site that
routes through an :class:`Executor`; translation, GA generations and
failure what-ifs run in the planner's process. Two backends are
provided:

* :class:`SerialExecutor` (the default) runs work units inline in the
  driver;
* :class:`~repro.engine.resilience.ResilientExecutor` fans picklable
  work units out over a :class:`concurrent.futures.ProcessPoolExecutor`
  and recovers from worker failure (the only pool backend).

Work units are *pure functions of their inputs*: ``fn(shared, item)``
where ``shared`` is an immutable payload broadcast once per session
(the pool initializer hands it to each worker: a forked worker inherits
it, a spawned one unpickles it) and ``item`` is the per-task argument.
Seeded RNG state stays in the driver process, so results are
deterministic and backend-independent; ``map`` always preserves input
order.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")
WorkFn = Callable[[Any, ItemT], ResultT]

# Payload broadcast to worker processes, installed once per process by the
# pool initializer so repeated map calls in one session don't re-pickle it.
_WORKER_SHARED: Any = None


def _install_shared(payload: Any) -> None:
    global _WORKER_SHARED
    if os.environ.get("ROPUS_SANITIZE") == "1":
        # Arm the determinism sanitizer before any work runs in this
        # process (the env var is inherited from the driver). Imported
        # lazily so unsanitized runs never load the analysis package.
        from repro.analysis.sanitizer import maybe_install

        maybe_install()
    if os.environ.get("ROPUS_LEAKTRACK") == "1":
        # Same discipline for the resource-leak tracker: workers track
        # their own acquisitions (nested pools, temp dirs) and report
        # at their interpreter exit.
        from repro.analysis.leaktrack import maybe_install as _arm_leaktrack

        _arm_leaktrack()
    _WORKER_SHARED = payload


class ExecutorSession(ABC):
    """One fan-out context with a shared payload already broadcast.

    Sessions exist so callers with *many* map calls over the same
    payload (a shard-planning pass maps once per wave) pay the
    broadcast cost once, not per call.
    """

    #: Number of work units the backend can run concurrently; callers
    #: use it to size chunks (one batched work unit per slot).
    parallelism: int = 1

    @abstractmethod
    def map(self, fn: WorkFn, items: Sequence[Any]) -> list[Any]:
        """Apply ``fn(shared, item)`` to every item, preserving order."""

    def waves(self, fn: WorkFn, items: Sequence[Any]) -> Iterator[Any]:
        """Map in parallelism-sized waves, yielding results in order.

        A caller that checkpoints each result as it is yielded loses at
        most the in-flight wave to a kill, and the resume picks up every
        completed unit. One session spans all waves, so the payload
        still broadcasts once.
        """
        items = list(items)
        wave = self.parallelism
        for start in range(0, len(items), wave):
            yield from self.map(fn, items[start : start + wave])

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self) -> "ExecutorSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Executor(ABC):
    """Protocol all execution backends implement."""

    name: str = "abstract"

    @abstractmethod
    def session(self, shared: Any = None) -> ExecutorSession:
        """Open a fan-out session with ``shared`` broadcast to workers."""

    def close(self) -> None:
        """Release any backend resources (sessions own theirs)."""


class _SerialSession(ExecutorSession):
    def __init__(self, shared: Any):
        self._shared = shared

    def map(self, fn: WorkFn, items: Sequence[Any]) -> list[Any]:
        return [fn(self._shared, item) for item in items]


class SerialExecutor(Executor):
    """Runs every work unit inline in the driver process."""

    name = "serial"

    def session(self, shared: Any = None) -> ExecutorSession:
        return _SerialSession(shared)
