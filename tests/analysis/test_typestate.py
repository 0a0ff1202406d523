"""Tests for the exception-edge CFG and the typestate checker.

Three layers: structural assertions about branch guards and exception
edges on the CFG itself (guarded if/else, loop back edges,
raise-in-try, raise-in-handler, finally ordering, nested try,
``with contextlib.suppress``), a hypothesis property that generated
function bodies never lose statements to unreachable blocks, and
behavioural coverage of the path-sensitive resource checker — leak
shapes, sanctioned ownership transfers, interprocedural release
helpers, and the None-guard refinement.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import build_cfg
from repro.analysis.effects import build_project
from repro.analysis.rules.base import ModuleContext
from repro.analysis.typestate import check_project
from repro.analysis.typestate.escape import (
    RELEASES,
    RETURNS,
    STORES,
    build_escape_index,
)


def _context(source: str, name: str = "sample.py") -> ModuleContext:
    path = Path(name)
    return ModuleContext(
        path=path,
        display_path=path.as_posix(),
        tree=ast.parse(source),
        source_lines=source.splitlines(),
    )


def _typestate(source: str):
    return check_project(build_project([_context(source)]))


def _categories(source: str) -> list[str]:
    return [finding.category for finding in _typestate(source)]


def _cfg(source: str):
    tree = ast.parse(source)
    function = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef)
    )
    return build_cfg(function)


def _blocks_with(cfg, predicate) -> list[int]:
    return [
        block.index
        for block in cfg.blocks
        if any(predicate(stmt) for stmt in block.statements)
    ]


def _reachable(cfg) -> set[int]:
    seen = {0}
    frontier = [0]
    while frontier:
        index = frontier.pop()
        for edge in cfg.successors(index):
            if edge.target not in seen:
                seen.add(edge.target)
                frontier.append(edge.target)
    return seen


def _is_call_named(stmt: ast.stmt, name: str) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == name
    )


class TestControlFlowGraph:
    def test_if_else_produces_guarded_edges(self):
        cfg = _cfg(
            "def f(x):\n"
            "    if x > 0:\n"
            "        y = 1\n"
            "    else:\n"
            "        y = 2\n"
            "    return y\n"
        )
        guards = [edge for edge in cfg.edges if edge.guard is not None]
        assert {edge.guard_value for edge in guards} == {True, False}
        assert all(isinstance(edge.guard, ast.Compare) for edge in guards)

    def test_while_loop_has_a_back_edge(self):
        cfg = _cfg(
            "def f(n):\n"
            "    while n > 0:\n"
            "        n = n - 1\n"
            "    return n\n"
        )
        assert any(edge.target <= edge.source for edge in cfg.edges)

    def test_return_terminates_its_block(self):
        cfg = _cfg(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
        )
        for block in cfg.blocks:
            for statement in block.statements[:-1]:
                assert not isinstance(statement, ast.Return)


class TestExceptionEdges:
    def test_raise_in_try_reaches_the_handler_not_the_exit(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        recover()\n"
        )
        [source] = _blocks_with(cfg, lambda s: _is_call_named(s, "risky"))
        handler_blocks = _blocks_with(
            cfg, lambda s: _is_call_named(s, "recover")
        )
        exception_targets = {
            edge.target
            for edge in cfg.successors(source)
            if edge.kind == "exception"
        }
        assert exception_targets & set(handler_blocks)
        # The catch-all handler intercepts: nothing escapes to the
        # implicit exception exit from inside this try.
        assert cfg.exception_exit not in exception_targets

    def test_narrow_handler_still_lets_the_exception_escape(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        recover()\n"
        )
        [source] = _blocks_with(cfg, lambda s: _is_call_named(s, "risky"))
        exception_targets = {
            edge.target
            for edge in cfg.successors(source)
            if edge.kind == "exception"
        }
        assert cfg.exception_exit in exception_targets

    def test_raise_in_handler_escapes_to_the_exception_exit(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        raise RuntimeError('boom')\n"
        )
        [raise_block] = _blocks_with(
            cfg, lambda s: isinstance(s, ast.Raise)
        )
        targets = {
            edge.target
            for edge in cfg.successors(raise_block)
            if edge.kind == "exception"
        }
        assert cfg.exception_exit in targets

    def test_finally_sits_between_the_raise_and_the_exit(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    finally:\n"
            "        cleanup()\n"
        )
        [source] = _blocks_with(cfg, lambda s: _is_call_named(s, "risky"))
        cleanup_blocks = set(
            _blocks_with(cfg, lambda s: _is_call_named(s, "cleanup"))
        )
        exception_targets = {
            edge.target
            for edge in cfg.successors(source)
            if edge.kind == "exception"
        }
        # The raise routes into (a copy of) the final body, never
        # straight to the exception exit ...
        assert exception_targets <= cleanup_blocks
        # ... and the exceptional copy re-raises outward afterwards.
        assert any(
            edge.target == cfg.exception_exit
            for block in exception_targets
            for edge in cfg.successors(block)
        )

    def test_nested_try_routes_inner_raise_through_both_rings(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        try:\n"
            "            risky()\n"
            "        except ValueError:\n"
            "            inner()\n"
            "    except Exception:\n"
            "        outer()\n"
        )
        [source] = _blocks_with(cfg, lambda s: _is_call_named(s, "risky"))
        inner_blocks = set(
            _blocks_with(cfg, lambda s: _is_call_named(s, "inner"))
        )
        outer_blocks = set(
            _blocks_with(cfg, lambda s: _is_call_named(s, "outer"))
        )
        exception_targets = {
            edge.target
            for edge in cfg.successors(source)
            if edge.kind == "exception"
        }
        assert exception_targets & inner_blocks
        assert exception_targets & outer_blocks
        assert cfg.exception_exit not in exception_targets

    def test_with_suppress_resumes_after_the_statement(self):
        cfg = _cfg(
            "import contextlib\n"
            "def f():\n"
            "    with contextlib.suppress(ValueError):\n"
            "        risky()\n"
            "    after()\n"
        )
        [source] = _blocks_with(cfg, lambda s: _is_call_named(s, "risky"))
        after_blocks = set(
            _blocks_with(cfg, lambda s: _is_call_named(s, "after"))
        )
        exception_targets = {
            edge.target
            for edge in cfg.successors(source)
            if edge.kind == "exception"
        }
        assert exception_targets & after_blocks


# -- hypothesis: generated bodies never lose statements ----------------

_SIMPLE = st.sampled_from(
    ["x = 1", "x = helper(x)", "sink(x)", "x = x + 1"]
)


@st.composite
def _body(draw, depth: int = 0) -> list:
    """A function body as indented source lines.

    Terminators are only ever generated as the final line of a
    ``try``-with-catch-all body, so the grammar itself never produces
    dead code — which is what lets the property demand that every
    placed statement stays reachable.
    """
    kinds = ["simple"]
    if depth < 2:
        kinds += ["if", "ifelse", "while", "for", "tryexc", "tryfin", "with"]
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        indent = lambda body: ["    " + line for line in body]
        if kind == "simple":
            lines.append(draw(_SIMPLE))
        elif kind == "if":
            lines += ["if x:", *indent(draw(_body(depth + 1)))]
        elif kind == "ifelse":
            lines += [
                "if x:",
                *indent(draw(_body(depth + 1))),
                "else:",
                *indent(draw(_body(depth + 1))),
            ]
        elif kind == "while":
            lines += ["while x:", *indent(draw(_body(depth + 1)))]
        elif kind == "for":
            lines += ["for i in items:", *indent(draw(_body(depth + 1)))]
        elif kind == "tryexc":
            # The try body must end in a may-raise statement (a call or
            # an explicit raise): a handler guarding a body that cannot
            # raise is genuinely unreachable in the CFG, by design.
            try_body = draw(_body(depth + 1))
            if draw(st.booleans()):
                try_body = try_body + ["raise ValueError('x')"]
            else:
                try_body = try_body + ["sink(x)"]
            lines += [
                "try:",
                *indent(try_body),
                "except Exception:",
                *indent(draw(_body(depth + 1))),
            ]
        elif kind == "tryfin":
            lines += [
                "try:",
                *indent(draw(_body(depth + 1))),
                "finally:",
                *indent(draw(_body(depth + 1))),
            ]
        else:
            lines += ["with ctx() as c:", *indent(draw(_body(depth + 1)))]
    return lines


class TestReachabilityProperty:
    @settings(max_examples=60, deadline=None)
    @given(_body())
    def test_every_placed_statement_is_reachable(self, lines):
        source = "def f(x, items):\n" + "\n".join(
            "    " + line for line in lines
        )
        cfg = _cfg(source)
        reachable = _reachable(cfg)
        placement: dict[int, list[int]] = {}
        for block in cfg.blocks:
            for stmt in block.statements:
                placement.setdefault(id(stmt), []).append(block.index)
        for blocks in placement.values():
            assert any(index in reachable for index in blocks)


# -- the checker itself ------------------------------------------------


class TestLeakDetection:
    def test_normal_path_leak(self):
        findings = _typestate(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    pool = ProcessPoolExecutor(max_workers=2)\n"
            "    return list(pool.map(str, items))\n"
        )
        assert [f.category for f in findings] == ["leak"]
        assert "normal path" in findings[0].message

    def test_exception_path_leak(self):
        findings = _typestate(
            "def run(path, data):\n"
            "    handle = open(path, 'w')\n"
            "    handle.write(data)\n"
            "    handle.close()\n"
        )
        assert [f.category for f in findings] == ["leak"]
        assert "exception path" in findings[0].message

    def test_try_finally_is_clean(self):
        assert (
            _categories(
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def run(items):\n"
                "    pool = ProcessPoolExecutor(max_workers=2)\n"
                "    try:\n"
                "        return list(pool.map(str, items))\n"
                "    finally:\n"
                "        pool.shutdown()\n"
            )
            == []
        )

    def test_with_statement_is_clean(self):
        assert (
            _categories(
                "def run(path, data):\n"
                "    with open(path, 'w') as handle:\n"
                "        handle.write(data)\n"
            )
            == []
        )

    def test_ownership_transfer_by_return_is_clean(self):
        assert (
            _categories(
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def make(workers):\n"
                "    return ProcessPoolExecutor(max_workers=workers)\n"
            )
            == []
        )

    def test_store_into_registry_is_clean(self):
        assert (
            _categories(
                "from multiprocessing.shared_memory import SharedMemory\n"
                "_LIVE = {}\n"
                "def publish(size):\n"
                "    segment = SharedMemory(create=True, size=size)\n"
                "    _LIVE[segment.name] = segment\n"
                "    return segment.name\n"
            )
            == []
        )

    def test_attaching_without_create_is_not_an_acquisition(self):
        assert (
            _categories(
                "from multiprocessing.shared_memory import SharedMemory\n"
                "def attach(name):\n"
                "    segment = SharedMemory(name=name)\n"
                "    return bytes(segment.buf)\n"
            )
            == []
        )

    def test_none_guard_refinement_keeps_conditional_cleanup_clean(self):
        assert (
            _categories(
                "from multiprocessing.shared_memory import SharedMemory\n"
                "def run(size):\n"
                "    segment = None\n"
                "    try:\n"
                "        segment = SharedMemory(create=True, size=size)\n"
                "        return segment.size\n"
                "    finally:\n"
                "        if segment is not None:\n"
                "            segment.unlink()\n"
            )
            == []
        )


class TestInterproceduralRelease:
    SOURCE = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def quiet_shutdown(pool):\n"
        "    pool.shutdown()\n"
        "def forwarding_shutdown(pool):\n"
        "    quiet_shutdown(pool)\n"
        "def run(items):\n"
        "    pool = ProcessPoolExecutor(max_workers=2)\n"
        "    try:\n"
        "        return list(pool.map(str, items))\n"
        "    finally:\n"
        "        forwarding_shutdown(pool)\n"
    )

    def test_release_through_helpers_is_clean(self):
        assert check_project(build_project([_context(self.SOURCE)])) == []

    def test_escape_index_sees_the_transitive_release(self):
        project = build_project([_context(self.SOURCE)])
        index = build_escape_index(project)
        assert RELEASES in index["sample.quiet_shutdown"]["pool"]
        assert RELEASES in index["sample.forwarding_shutdown"]["pool"]

    def test_escape_index_records_stores_and_returns(self):
        project = build_project(
            [
                _context(
                    "class Owner:\n"
                    "    def __init__(self, pool):\n"
                    "        self._pool = pool\n"
                    "def passthrough(handle):\n"
                    "    return handle\n"
                )
            ]
        )
        index = build_escape_index(project)
        assert STORES in index["sample.Owner.__init__"]["pool"]
        assert RETURNS in index["sample.passthrough"]["handle"]


class TestUseAfterRelease:
    def test_must_released_use_fires(self):
        findings = _typestate(
            "def run(path):\n"
            "    handle = open(path)\n"
            "    handle.close()\n"
            "    return handle.read()\n"
        )
        assert "use-after-release" in [f.category for f in findings]

    def test_may_released_use_stays_quiet(self):
        assert (
            _categories(
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def run(items, eager):\n"
                "    pool = ProcessPoolExecutor(max_workers=2)\n"
                "    try:\n"
                "        if eager:\n"
                "            pool.shutdown()\n"
                "        return list(pool.map(str, items))\n"
                "    finally:\n"
                "        pool.shutdown()\n"
            )
            == []
        )


class TestDoubleRelease:
    def test_non_idempotent_double_release_fires(self):
        findings = _typestate(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def run(size):\n"
            "    segment = SharedMemory(create=True, size=size)\n"
            "    segment.unlink()\n"
            "    segment.unlink()\n"
        )
        assert "double-release" in [f.category for f in findings]

    def test_idempotent_double_release_stays_quiet(self):
        findings = _typestate(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    pool = ProcessPoolExecutor(max_workers=2)\n"
            "    try:\n"
            "        return list(pool.map(str, items))\n"
            "    finally:\n"
            "        pool.shutdown()\n"
            "        pool.shutdown()\n"
        )
        assert "double-release" not in [f.category for f in findings]


class TestUnownedResource:
    def test_anonymous_handoff_fires(self):
        findings = _typestate(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(registry):\n"
            "    registry.attach(ProcessPoolExecutor(max_workers=2))\n"
        )
        assert [f.category for f in findings] == ["unowned"]

    def test_bound_handoff_is_an_ordinary_escape(self):
        findings = _typestate(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(registry):\n"
            "    pool = ProcessPoolExecutor(max_workers=2)\n"
            "    try:\n"
            "        registry.attach(pool)\n"
            "    except BaseException:\n"
            "        pool.shutdown()\n"
            "        raise\n"
        )
        assert findings == []


class TestTupleResult:
    def test_publish_tuple_binds_the_segment_element(self):
        findings = _typestate(
            "from repro.engine.broadcast import publish, release\n"
            "def run(payload):\n"
            "    handle, segment, nbytes = publish(payload)\n"
            "    return handle\n"
        )
        assert [f.category for f in findings] == ["leak"]
        assert "broadcast segment" in findings[0].message

    def test_released_publish_tuple_is_clean(self):
        assert (
            _categories(
                "from repro.engine.broadcast import publish, release\n"
                "def run(payload):\n"
                "    handle, segment, nbytes = publish(payload)\n"
                "    try:\n"
                "        return handle\n"
                "    finally:\n"
                "        if segment is not None:\n"
                "            release(segment.name)\n"
            )
            == []
        )
