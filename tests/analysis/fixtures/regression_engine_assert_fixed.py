"""The post-fix test shape: the engine is closed on every path.

Identical to ``regression_engine_assert_leak.py`` except the engine is
a context manager, so a failing assertion still shuts the pool down.
"""

from repro.engine import ExecutionEngine


def _double(shared, item):
    return 2 * item


def check_parallel_matches_serial(items):
    with ExecutionEngine.with_workers(2) as engine:
        with engine.executor.session(None) as session:
            doubled = list(session.map(_double, items))
        assert doubled == [2 * item for item in items]
