"""The execution engine: one executor plus one instrumentation sink.

:class:`ExecutionEngine` is the object the :class:`~repro.core.framework.ROpus`
facade threads down through translation, placement, and failure planning.
It bundles two concerns:

* *where* fan-out work runs (:class:`~repro.engine.executor.Executor`) —
  only the hierarchical tier's shard planning opens a session; translation,
  GA generations and failure what-ifs run in the planner's process;
* *what we learn* about the run
  (:class:`~repro.engine.instrumentation.Instrumentation`), which every
  layer records into.

The default engine is serial and always-instrumented, so existing code
gains stage timings for free and parallelism is strictly opt-in.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.executor import Executor, ExecutorSession, SerialExecutor
from repro.engine.instrumentation import Instrumentation
from repro.engine.resilience import ResilienceConfig, ResilientExecutor


class ExecutionEngine:
    """Bundles an execution backend with an instrumentation sink.

    >>> engine = ExecutionEngine.serial()
    >>> engine.executor.name
    'serial'
    >>> engine = ExecutionEngine.with_workers(1)
    >>> engine.executor.name
    'serial'
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.executor = executor if executor is not None else SerialExecutor()
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        # Executors that emit recovery telemetry (the resilient backend)
        # expose attach_instrumentation; wiring it here keeps retries,
        # pool respawns, and degradations in the same sink as timings.
        attach = getattr(self.executor, "attach_instrumentation", None)
        if callable(attach):
            attach(self.instrumentation)

    @classmethod
    def serial(
        cls, instrumentation: Optional[Instrumentation] = None
    ) -> "ExecutionEngine":
        """The default engine: inline execution, fresh instrumentation."""
        return cls(SerialExecutor(), instrumentation)

    @classmethod
    def with_workers(
        cls,
        workers: int | None,
        config: Optional[ResilienceConfig] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "ExecutionEngine":
        """Serial for ``workers in (None, 1)``, else the process pool.

        The pool backend is the fault-tolerant one (retries, timeouts,
        degradation ladders), so any worker count above one survives a
        killed worker at the default budget; ``config`` only tunes that
        budget or injects faults, and with one set the recovery
        wrapper runs at any worker count (in the driver for
        ``None``/``1``).
        """
        if config is None and workers in (None, 1):
            return cls(SerialExecutor(), instrumentation)
        return cls(ResilientExecutor(workers, config), instrumentation)

    def session(self, shared: "Any" = None) -> ExecutorSession:
        """Open an executor session and count one ``broadcast.sessions``."""
        session = self.executor.session(shared)
        self.instrumentation.count("broadcast.sessions")
        return session

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ExecutionEngine(executor={self.executor.name!r})"
