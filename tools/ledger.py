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


if __name__ == "__main__":
    for module, (lines, kinds) in ledger().items():
        print(f"{module:44s} {lines:5d}  {' '.join(kinds) or '-'}")
