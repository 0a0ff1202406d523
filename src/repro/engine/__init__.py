"""Pluggable execution engine: fan-out backends plus instrumentation.

The engine subsystem decouples *what* the pipeline computes from *how*
the embarrassingly parallel parts run and *what is measured* while they
do. See :class:`ExecutionEngine` for the object threaded through the
framework, :class:`SerialExecutor` and :class:`ResilientExecutor` (the
one process-pool backend) for where work runs, and
:class:`Instrumentation` for stage timers and counters.
"""

from repro.engine.checkpoint import Checkpointer
from repro.engine.core import ExecutionEngine
from repro.engine.dispatch import split_chunks
from repro.engine.executor import Executor, ExecutorSession, SerialExecutor
from repro.engine.faults import FaultClock, FaultKind, FaultPlan
from repro.engine.instrumentation import Instrumentation, StageStats
from repro.engine.resilience import ResilienceConfig, ResilientExecutor

__all__ = [
    "Checkpointer",
    "ExecutionEngine",
    "Executor",
    "ExecutorSession",
    "FaultClock",
    "FaultKind",
    "FaultPlan",
    "Instrumentation",
    "ResilienceConfig",
    "ResilientExecutor",
    "SerialExecutor",
    "StageStats",
    "split_chunks",
]
