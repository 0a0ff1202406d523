"""Pluggable execution backends for the pipeline's fan-out work.

The hierarchical tier's shard planning is the one fan-out site that
routes through an :class:`Executor` (one lock-step unit of shards per
worker); translation, GA generations and failure what-ifs run in the
planner's process. Two backends are
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
from typing import Any, Callable, Sequence, TypeVar

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

    A session broadcasts its payload once, however many map calls it
    serves.
    """

    #: Number of work units the backend can run concurrently; callers
    #: use it to size chunks (one batched work unit per slot).
    parallelism: int = 1

    @abstractmethod
    def map(self, fn: WorkFn, items: Sequence[Any]) -> list[Any]:
        """Apply ``fn(shared, item)`` to every item, preserving order."""

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
