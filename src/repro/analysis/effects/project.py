"""Project model: every function, its direct effects, and its calls.

One :class:`_ModuleScanner` pass per analyzed module produces a
:class:`FunctionInfo` for each ``def`` (top-level functions, methods,
and nested functions each get their own entry, qualified
``module.Class.name`` / ``module.outer.<locals>.inner``). The scan
records three things the inference pass, ROP013 and the typestate
checker consume:

* **direct effects** — primitive effect sites observable in the body
  itself (mutable-global access, ``global`` rebinding, ``os.environ``
  reads); intrinsic *call* effects are resolved later, at inference
  time, once the full project index exists;
* **call sites** — the callee reference in canonical dotted form
  (through the module's ImportMap) plus enough syntax to resolve
  argument-sensitive intrinsics;
* **submission sites** — ``.map``/``.submit`` on executor-shaped
  receivers, the crossing point ROP013 polices.

Resolution is deliberately optimistic: an attribute call on an
unknown receiver contributes only what the method-name heuristics
know (``.glob`` enumerates the filesystem, ``.read_text`` is I/O).
Assuming the worst for every dynamic call would mark the entire tree
impure and bury real findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.effects.lattice import Effect, EffectSummary, Origin
from repro.analysis.rules.base import ModuleContext, dotted_name

#: Receiver-name fragments that mark a ``.map``/``.submit`` call as an
#: executor submission (mirrors ROP004's heuristic).
_EXECUTOR_NAME_PARTS = ("executor", "session", "pool", "engine")

_SUBMIT_METHODS = frozenset({"map", "submit"})

#: Mutating container/attribute methods; called on a module-level name
#: they constitute global mutation.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)


def _receiver_matches(receiver: ast.expr, parts: tuple[str, ...]) -> bool:
    dotted = dotted_name(receiver)
    if dotted is None:
        return False
    tail = dotted.split(".")[-1].lower()
    return any(part in tail for part in parts)


@dataclass(frozen=True)
class CallSite:
    """One call edge candidate out of a function."""

    line: int
    col: int
    kind: str  # "project" | "name" | "method" | "unknown"
    target: str | None
    node: ast.Call | None
    receiver: str | None = None


@dataclass(frozen=True)
class SubmissionSite:
    """One ``executor.map/submit`` call and its resolved work unit."""

    line: int
    col: int
    work_repr: str
    work_target: str | None


@dataclass
class FunctionInfo:
    """Everything scanned about one function definition."""

    qualified: str
    module: str
    display_path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    context: ModuleContext
    direct: EffectSummary = field(default_factory=EffectSummary.empty)
    calls: list[CallSite] = field(default_factory=list)
    submissions: list[SubmissionSite] = field(default_factory=list)

    @property
    def short_name(self) -> str:
        return self.qualified.rsplit(".", 1)[-1]


def module_name_for(path: Path) -> str:
    """Dotted module name from the file's package structure.

    Walks up through ``__init__.py``-bearing directories, so
    ``src/repro/placement/genetic.py`` names
    ``repro.placement.genetic`` and a loose fixture file names its
    stem.
    """
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:  # pragma: no cover - filesystem root
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


class _ModuleScanner:
    """Extract every FunctionInfo from one parsed module."""

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.module = module_name_for(context.path)
        self.imports = context.imports
        self.module_defs: set[str] = set()
        self.module_classes: set[str] = set()
        self._module_assigned: list[str] = []
        for stmt in context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.module_classes.add(stmt.name)
            else:
                for target_name in _assigned_names(stmt):
                    self._module_assigned.append(target_name)
        self.module_globals = set(self._module_assigned)
        # A module-level name is *mutable* when some function rebinds
        # it (``global``) or it is assigned more than once at module
        # level; reading those is the READS_GLOBAL effect. Constants
        # assigned exactly once are just configuration.
        rebound: set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Global):
                rebound.update(node.names)
        counts: dict[str, int] = {}
        for name in self._module_assigned:
            counts[name] = counts.get(name, 0) + 1
        self.mutable_globals = rebound | {
            name for name, count in counts.items() if count > 1
        }

    def scan(self) -> list[FunctionInfo]:
        functions: list[FunctionInfo] = []
        for stmt in self.context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(
                    stmt, f"{self.module}.{stmt.name}", None, functions
                )
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._scan_function(
                            item,
                            f"{self.module}.{stmt.name}.{item.name}",
                            stmt.name,
                            functions,
                        )
        return functions

    def _scan_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualified: str,
        class_name: str | None,
        out: list[FunctionInfo],
    ) -> None:
        info = FunctionInfo(
            qualified=qualified,
            module=self.module,
            display_path=self.context.display_path,
            node=node,
            context=self.context,
        )
        visitor = _FunctionBodyVisitor(self, info, class_name)
        visitor.run()
        out.append(info)
        for child in visitor.nested_defs:
            self._scan_function(
                child,
                f"{qualified}.<locals>.{child.name}",
                class_name,
                out,
            )


def _assigned_names(stmt: ast.stmt) -> Iterator[str]:
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    yield element.id


class _FunctionBodyVisitor(ast.NodeVisitor):
    """One pass over a single function body.

    Nested ``def``s are collected (not descended into) — their effects
    belong to their own :class:`FunctionInfo`; the enclosing function
    only acquires a call edge if it actually calls them.
    """

    def __init__(
        self,
        scanner: _ModuleScanner,
        info: FunctionInfo,
        class_name: str | None,
    ) -> None:
        self.scanner = scanner
        self.info = info
        self.class_name = class_name
        self.nested_defs: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self._nested_names: dict[str, str] = {}
        self._effects: list[tuple[Effect, Origin]] = []
        self._global_decls: set[str] = set()
        self._local_bindings: set[str] = set()
        self._root = info.node

    # -- driver --------------------------------------------------------
    def run(self) -> None:
        self._prepass()
        for stmt in self._root.body:
            self.visit(stmt)
        self.info.direct = EffectSummary.of(self._effects)

    def _prepass(self) -> None:
        """Collect nested defs, local bindings, and global decls."""
        args = self._root.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            self._local_bindings.add(arg.arg)
        for node in ast.walk(self._root):
            if node is self._root:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._nested_names[node.name] = (
                    f"{self.info.qualified}.<locals>.{node.name}"
                )
            elif isinstance(node, ast.Global):
                self._global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                self._local_bindings.add(node.id)

    # -- helpers -------------------------------------------------------
    def _origin(self, node: ast.AST, detail: str) -> Origin:
        return Origin(
            path=self.info.display_path,
            line=getattr(node, "lineno", 1),
            detail=detail,
        )

    def _add(self, effect: Effect, node: ast.AST, detail: str) -> None:
        self._effects.append((effect, self._origin(node, detail)))

    # -- structural visitors -------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested_defs.append(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.nested_defs.append(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._add(
            Effect.MUTATES_GLOBAL,
            node,
            f"global rebinding of {', '.join(node.names)}",
        )

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in self.scanner.mutable_globals
            and node.id not in self._global_decls
            and node.id not in self._local_bindings
        ):
            self._add(
                Effect.READS_GLOBAL,
                node,
                f"read of mutable module global {node.id!r}",
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        canonical = self.scanner.imports.resolve_imported(node.value)
        if canonical == "os.environ":
            self._add(Effect.ENV, node, "os.environ[...] read")
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            target = dotted_name(node.value)
            if (
                target in self.scanner.module_globals
                and target not in self._local_bindings
            ):
                self._add(
                    Effect.MUTATES_GLOBAL,
                    node,
                    f"item assignment on module global {target!r}",
                )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        # Mutation of module-level containers through their methods.
        if isinstance(node.func, ast.Attribute):
            receiver = dotted_name(node.func.value)
            if (
                node.func.attr in _MUTATING_METHODS
                and receiver in self.scanner.module_globals
                and receiver not in self._local_bindings
            ):
                self._add(
                    Effect.MUTATES_GLOBAL,
                    node,
                    f"{receiver}.{node.func.attr}() on a module global",
                )

        self._record_call(node)
        self._record_submission(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        kind, target, receiver = self._resolve_callable(node.func)
        self.info.calls.append(
            CallSite(
                line=node.lineno,
                col=node.col_offset,
                kind=kind,
                target=target,
                node=node,
                receiver=receiver,
            )
        )

    def _record_submission(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and _receiver_matches(node.func.value, _EXECUTOR_NAME_PARTS)
            and node.args
        ):
            work = node.args[0]
            self.info.submissions.append(
                SubmissionSite(
                    line=node.lineno,
                    col=node.col_offset,
                    work_repr=ast.unparse(work),
                    work_target=self._resolve_work(work),
                )
            )

    def _resolve_callable(
        self, func: ast.expr
    ) -> tuple[str, str | None, str | None]:
        """Classify a callee expression.

        Returns ``(kind, target, receiver)`` where kind is ``name``
        (canonical dotted reference, resolvable against the project
        index or the intrinsic tables), ``method`` (attribute call on
        an opaque receiver), or ``unknown``.
        """
        dotted = dotted_name(func)
        if dotted is None:
            return "unknown", None, None
        head, _, rest = dotted.partition(".")
        module = self.scanner.module
        if not rest:
            if head in self._nested_names:
                return "name", self._nested_names[head], None
            if head in self.scanner.module_defs:
                return "name", f"{module}.{head}", None
            if head in self.scanner.module_classes:
                return "name", f"{module}.{head}.__init__", None
        else:
            if head in {"self", "cls"} and self.class_name is not None:
                if "." not in rest:
                    return (
                        "name",
                        f"{module}.{self.class_name}.{rest}",
                        None,
                    )
            if head in self.scanner.module_classes and "." not in rest:
                return "name", f"{module}.{dotted}", None
        canonical = self.scanner.imports.resolve_imported(func)
        if canonical is not None:
            return "name", canonical, None
        if not rest:
            # A plain name: builtin or local callable. Builtins like
            # ``open``/``print`` matter to the intrinsic table.
            return "name", head, None
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            return "method", func.attr, receiver
        return "unknown", dotted, None

    def _resolve_work(self, arg: ast.expr) -> str | None:
        """Canonical name of an executor submission's work unit.

        Sees through ``functools.partial(fn, ...)``; lambdas and other
        call results resolve to ``None``.
        """
        if isinstance(arg, ast.Lambda):
            return None
        if isinstance(arg, ast.Call):
            kind, target, _ = self._resolve_callable(arg.func)
            if (
                kind == "name"
                and target in {"functools.partial", "partial"}
                and arg.args
            ):
                return self._resolve_work(arg.args[0])
            return None
        kind, target, _ = self._resolve_callable(arg)
        return target if kind == "name" else None


@dataclass
class EffectProject:
    """The scanned project: function index plus per-module scanners."""

    modules: list[ModuleContext]
    functions: dict[str, FunctionInfo]
    summaries: dict[str, EffectSummary] = field(default_factory=dict)


def build_project(modules: list[ModuleContext]) -> EffectProject:
    """Scan every module and assemble the function index.

    Later definitions never overwrite earlier ones on a qualified-name
    collision (shadowed re-definitions are a code smell the ordinary
    linters already catch); iteration order is the caller-provided
    module order, which the runner keeps deterministic.
    """
    functions: dict[str, FunctionInfo] = {}
    for context in modules:
        for info in _ModuleScanner(context).scan():
            functions.setdefault(info.qualified, info)
    return EffectProject(modules=list(modules), functions=functions)


class ProjectContext:
    """Everything a project-scope rule may inspect.

    Built once per analysis run; the effect inference is computed
    lazily on first access so module-only runs (``--select ROP001``)
    never pay for it.
    """

    def __init__(self, modules: list[ModuleContext]) -> None:
        self.modules = modules
        self._project: EffectProject | None = None
        self._typestate: "list[Any] | None" = None

    @property
    def effects(self) -> EffectProject:
        if self._project is None:
            from repro.analysis.effects.inference import infer_effects

            project = build_project(self.modules)
            infer_effects(project)
            self._project = project
        return self._project

    @property
    def typestate(self) -> "list[Any]":
        """Typestate findings, computed once and shared by ROP017–ROP020.

        The four lifecycle rules each filter one category out of the
        same checker run, so the CFG fixpoints execute once per
        analysis, not once per rule.
        """
        if self._typestate is None:
            from repro.analysis.typestate.checker import check_project

            self._typestate = check_project(self.effects)
        return self._typestate


__all__ = [
    "CallSite",
    "EffectProject",
    "FunctionInfo",
    "ProjectContext",
    "SubmissionSite",
    "build_project",
    "module_name_for",
]
