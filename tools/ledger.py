"""The reachability ledger: who reaches each module under ``src/repro``.

    python tools/ledger.py

Walks the static import graph (``ast``, nothing is imported) from six
kinds of root and prints, per module, its lines and the kinds that
reach it. ``from pkg import name`` is resolved through ``pkg``'s
``__init__`` to the submodule that defines ``name``, and a package
``__init__`` reached on the way is marked but not walked — so a
re-export alone keeps nothing alive. A module reached by ``tests`` only
is dead weight unless ``tests/test_reachability.py`` names it, with the
reason, as a reference implementation.

It then lists the top-level functions that nothing but ``tests`` and
``record`` (``benchmarks/record`` and ``tools``) reaches. At function
grain a module's top-level functions are units of their own and the
rest of the module (its classes and module-level code) is one more; a
unit reaches the functions its names and ``module.attribute`` chains
resolve to, and the modules it imports. ``tests/test_reachability.py``
pins that list to an allow-list with reasons.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: dotted name -> file, for every module under ``src/repro``.
MODULES: dict[str, Path] = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__"
    ): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def roots() -> dict[str, list[Path]]:
    """Root kind -> the files whose imports start that kind's walk.

    ``repro.analysis.rules`` registers its rule modules by importing
    them, so that ``__init__`` is walked like a command.
    """
    commands = ("cli", "__main__", "analysis.__main__", "analysis.rules")
    benchmarks = ROOT / "benchmarks"
    return {
        "plan": [MODULES["repro.core.framework"]],
        "cli": [MODULES[f"repro.{name}"] for name in commands],
        "record": sorted(benchmarks.glob("record/*.py"))
        + sorted(ROOT.glob("tools/*.py")),
        "paper-shapes": sorted(benchmarks.glob("*.py")),
        "examples": sorted(ROOT.glob("examples/*.py")),
        "tests": sorted(ROOT.glob("tests/**/*.py")),
    }


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defining_module(module: str, name: str) -> str:
    """The module that defines ``name`` as imported from ``module``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    path = MODULES.get(module)
    if path is not None and path.name == "__init__.py":
        for node in _tree(path).body:
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _defining_module(node.module, alias.name)
    return module


def _imports(path: Path) -> set[str]:
    """The ``src/repro`` modules one file's import statements bind."""
    found: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(
                _defining_module(node.module, alias.name)
                for alias in node.names
            )
    return found & MODULES.keys()


def reached(starts: list[Path]) -> set[str]:
    """Every module the ``starts`` import, directly or through modules."""
    names = {path: name for name, path in MODULES.items()}
    seen = {names[path] for path in starts if path in names}
    stack = list(starts)
    while stack:
        for module in _imports(stack.pop()) - seen:
            seen.add(module)
            if MODULES[module].name != "__init__.py":
                stack.append(MODULES[module])
    # Importing a.b.c runs a and a.b: mark the packages, walk neither.
    for module in list(seen):
        while "." in module:
            module = module.rpartition(".")[0]
            seen.add(module)
    return seen


def ledger() -> dict[str, tuple[int, tuple[str, ...]]]:
    """Module -> (lines, the root kinds that reach it)."""
    reach = {kind: reached(starts) for kind, starts in roots().items()}
    return {
        module: (
            len(path.read_text(encoding="utf-8").splitlines()),
            tuple(kind for kind, modules in reach.items() if module in modules),
        )
        for module, path in MODULES.items()
    }


#: A function-grain unit: ``(module, function)``, or ``(module, None)``
#: for the rest of a module. A root file is walked whole.
Unit = tuple[str, "str | None"]


def _top_functions(module: str) -> dict[str, ast.AST]:
    if MODULES[module].name == "__init__.py":
        return {}
    return {
        node.name: node
        for node in _tree(MODULES[module]).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@functools.lru_cache(maxsize=None)
def _bindings(path: Path) -> dict[str, tuple[str, "str | None"]]:
    """Every name one file's imports bind: ``(module, name or None)``."""
    bound: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = (alias.name, None)
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = (head, None)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                name = alias.asname or alias.name
                if f"{node.module}.{alias.name}" in MODULES:
                    bound[name] = (f"{node.module}.{alias.name}", None)
                else:
                    target = _defining_module(node.module, alias.name)
                    bound[name] = (target, alias.name)
    return bound


def _dotted(node: ast.AST) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _references(path: Path, module: str | None, nodes) -> set[Unit]:
    """The units the code under ``nodes`` (of the file ``path``) reaches."""
    bound = _bindings(path)
    local = _top_functions(module) if module in MODULES else {}
    found: set[Unit] = set()

    def function(owner: str, name: str) -> None:
        if owner in MODULES:
            found.add((owner, None))
            if name in _top_functions(owner):
                found.add((owner, name))

    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.update(
                    (_defining_module(node.module, alias.name), None)
                    for alias in node.names
                )
            elif isinstance(node, ast.Name):
                if node.id in local:
                    found.add((module, node.id))
                elif node.id in bound:
                    owner, name = bound[node.id]
                    if name is None:
                        found.add((owner, None))
                    else:
                        function(owner, name)
            elif isinstance(node, ast.Attribute):
                parts = _dotted(node)
                if parts is None or parts[0] not in bound:
                    continue
                owner, name = bound[parts[0]]
                if name is not None:
                    continue
                for attr in parts[1:]:
                    if f"{owner}.{attr}" not in MODULES:
                        function(owner, attr)
                        break
                    owner = f"{owner}.{attr}"
    return {unit for unit in found if unit[0] in MODULES}


def _unit_references(unit: Unit) -> set[Unit]:
    module, name = unit
    if MODULES[module].name == "__init__.py":
        return set()
    path = MODULES[module]
    functions = _top_functions(module)
    if name is not None:
        return _references(path, module, [functions[name]])
    rest = [node for node in _tree(path).body if node not in functions.values()]
    return _references(path, module, rest)


def reached_functions(starts: list[Path]) -> set[Unit]:
    """Every ``(module, function)`` the ``starts`` reach, at function grain."""
    names = {path: name for name, path in MODULES.items()}
    seen: set[Unit] = set()
    stack: list[Unit] = []
    for path in starts:
        module = names.get(path)
        units = _references(path, module, [_tree(path)])
        if module is not None:
            units |= {(module, name) for name in _top_functions(module)}
        stack.extend(units - seen)
        seen |= units
    while stack:
        for unit in _unit_references(stack.pop()) - seen:
            seen.add(unit)
            stack.append(unit)
    return {unit for unit in seen if unit[1] is not None}


def function_ledger() -> dict[str, tuple[str, ...]]:
    """``module:function`` -> the root kinds that reach it, every function."""
    reach = {kind: reached_functions(starts) for kind, starts in roots().items()}
    return {
        f"{module}:{name}": tuple(
            kind for kind, units in reach.items() if (module, name) in units
        )
        for module in MODULES
        for name in _top_functions(module)
    }


def unshipped_functions() -> dict[str, tuple[str, ...]]:
    """The functions only ``tests`` and ``record`` reach (or nothing)."""
    return {
        function: kinds
        for function, kinds in function_ledger().items()
        if set(kinds) <= {"tests", "record"}
    }


if __name__ == "__main__":
    for module, (lines, kinds) in ledger().items():
        print(f"{module:44s} {lines:5d}  {' '.join(kinds) or '-'}")
    print()
    print("top-level functions only tests / record reach:")
    for function, kinds in unshipped_functions().items():
        print(f"  {function:62s} {' '.join(kinds) or '-'}")
