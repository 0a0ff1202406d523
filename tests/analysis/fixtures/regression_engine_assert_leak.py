"""The test-suite engine leak ROP017 caught once ``tests/`` was linted.

This mirrors the chaos/broadcast/resilience tests as they stood before
the typestate rules gated the test tree: a process-pool engine is
built, the assertion runs, and ``close()`` comes last — so a *failing*
assertion (or a raising ``map``) skips the close and strands the worker
pool for the rest of the session. The fixed shape (see
``regression_engine_assert_fixed.py``) uses the engine as a context
manager.
"""

from repro.engine import ExecutionEngine


def _double(shared, item):
    return 2 * item


def check_parallel_matches_serial(items):
    engine = ExecutionEngine.with_workers(2)
    with engine.executor.session(None) as session:
        doubled = list(session.map(_double, items))
    assert doubled == [2 * item for item in items]
    engine.close()
