"""Cheap checks for the three resource/state bugs this repo has had.

Each takes the shape the bug had, so the same function runs over the
regression fixture (``tests/analysis/fixtures/regression_*.py``) and
over the shipped tree:

* :func:`module_state_mutations` — a function mutating a module-level
  container (the ``_SWEEP_SCRATCH`` worker cache): serially harmless,
  under a process pool a forked worker inherits a warm cache, a spawned
  one starts cold, and a reused one carries state between payloads;
* :func:`unowned_pool_bindings` — a pool owner (an engine from
  ``with_workers`` or an executor ``session``) bound by assignment and
  closed after the assertions, so a failing one strands the pool;
* :func:`stranded_segments` — a ``SharedMemory`` segment created before
  any owner knows about it, so a raise while populating it strands the
  ``/dev/shm`` segment.

The first two read one module's AST; the third runs the publisher with
a fault injected between creating a segment and filling it.
"""

from __future__ import annotations

import ast
from multiprocessing import shared_memory
from types import SimpleNamespace

import pytest

_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)
_CONTAINER_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)
_MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "remove", "reverse", "setdefault",
        "sort", "update",
    }
)
#: Calls whose result owns worker processes until closed.
_POOL_OWNERS = frozenset({"with_workers", "session"})


def called_name(call: ast.Call) -> str | None:
    """The bare name a call invokes: ``f`` for ``f()`` and ``a.b.f()``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _module_containers(tree: ast.Module) -> set[str]:
    """Names bound at module level to a mutable container."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, _CONTAINER_LITERALS) or (
            isinstance(value, ast.Call) and called_name(value) in _CONTAINER_CALLS
        ):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def functions(tree: ast.AST):
    """Every ``def`` in ``tree``, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def module_state_mutations(tree: ast.Module) -> set[str]:
    """Module-level names some function in ``tree`` mutates.

    A mutation is a subscript store or delete on a module-level
    container, a mutating method call on one, or an assignment to a
    name the function declares ``global``. A parameter or local of the
    same name shadows the module's and is not counted.
    """
    containers = _module_containers(tree)
    found = set()
    for function in functions(tree):
        declared = {
            name
            for node in ast.walk(function)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        arguments = function.args
        local = {
            argument.arg
            for argument in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg,
            )
            if argument is not None
        } | {
            node.id
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        shared = containers - (local - declared)
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in declared:
                    found.add(node.id)
            elif isinstance(node, ast.Subscript) and not isinstance(
                node.ctx, ast.Load
            ):
                if isinstance(node.value, ast.Name) and node.value.id in shared:
                    found.add(node.value.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in shared
            ):
                found.add(node.func.value.id)
    return found


def unowned_pool_bindings(tree: ast.Module) -> list[tuple[str, int]]:
    """``(function, line)`` of every pool owner bound and not returned.

    A pool owner is opened with ``with`` (its exit closes it on every
    path) or handed straight to a callee. A function that binds one by
    assignment must give it away with ``return name``; otherwise its
    ``close()`` sits on the happy path only.
    """
    found = []
    for function in functions(tree):
        returned = {
            node.value.id
            for node in ast.walk(function)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
        }
        for node in ast.walk(function):
            if not (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Call)
                and called_name(node.value) in _POOL_OWNERS
            ):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                not (isinstance(target, ast.Name) and target.id in returned)
                for target in targets
            ):
                found.append((function.name, node.lineno))
    return found


def stranded_segments(module, payload) -> list[str]:
    """Segments ``module.publish(payload)`` strands when populating fails.

    ``module`` is a publisher shaped like :mod:`repro.engine.broadcast`:
    a ``publish`` function creating segments through its
    ``shared_memory`` global and a ``_PUBLISHED`` registry naming the
    segments it owns. Each segment it creates here raises on the first
    access to its buffer, the window between creating a segment and
    filling it. Every segment created is released before this returns,
    owned or not, so nothing is left in ``/dev/shm``.
    """
    created = []

    class _FailsToPopulate(shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

        @property
        def buf(self):
            raise BufferError("injected: populating the segment failed")

    original = module.shared_memory
    module.shared_memory = SimpleNamespace(SharedMemory=_FailsToPopulate)
    try:
        with pytest.raises(BufferError, match="injected"):
            module.publish(payload)
    finally:
        module.shared_memory = original
    stranded = [s.name for s in created if s.name not in module._PUBLISHED]
    for segment in created:
        module._PUBLISHED.pop(segment.name, None)
        segment.close()
        segment.unlink()
    return stranded
