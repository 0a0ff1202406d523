"""Rule framework: module context, import resolution, and the registry.

Every rule is an :class:`ast.NodeVisitor` subclass registered under a
stable ``ROPxxx`` id. Rules receive a :class:`ModuleContext` — the
parsed tree plus the import alias map — and emit
:class:`~repro.analysis.findings.Finding` objects through
:meth:`Rule.report`.

The import map is what lets rules reason about *canonical* dotted
names: ``np.random.default_rng()`` and
``numpy.random.default_rng()`` both resolve to
``numpy.random.default_rng`` regardless of how the module spelled its
imports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterator

from repro.analysis.findings import Finding, Severity


def dotted_name(node: ast.AST) -> str | None:
    """Collapse a ``Name``/``Attribute`` chain into ``a.b.c`` form.

    Returns ``None`` when the chain is rooted in anything other than a
    plain name (a call result, a subscript, ``self`` attributes are
    still returned — the resolver decides whether the root matters).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Local-name to canonical-module resolution for one module.

    >>> import ast as _ast
    >>> imports = ImportMap(_ast.parse("import numpy as np"))
    >>> imports.resolve("np.random.default_rng")
    'numpy.random.default_rng'
    """

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Rewrite the first segment of ``dotted`` through the alias map."""
        head, _, rest = dotted.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_node(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression, or ``None``."""
        dotted = dotted_name(node)
        return self.resolve(dotted) if dotted is not None else None

    def resolve_imported(self, node: ast.AST) -> str | None:
        """Canonical name, but only when the root is an imported name.

        Rules banning module calls (``random.*``, ``time.time``) use
        this form so a *local variable* that happens to shadow a module
        name never produces a false positive.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one analyzed module."""

    path: Path
    display_path: str
    tree: ast.Module
    source_lines: list[str]
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)

    def posix_path(self) -> str:
        return self.path.as_posix()


class Rule(ast.NodeVisitor):
    """Base class for one invariant check.

    Subclasses set the class-level metadata, implement ``visit_*``
    methods, and call :meth:`report` for each violation. A fresh rule
    instance is created per module, so instances may keep per-module
    state freely.
    """

    rule_id: ClassVar[str] = "ROP000"
    name: ClassVar[str] = "abstract"
    description: ClassVar[str] = ""
    hint: ClassVar[str] = ""
    #: Why the invariant matters in this codebase — shown by
    #: ``ropus lint --explain ROPxxx`` alongside the examples.
    rationale: ClassVar[str] = ""
    #: A minimal violating snippet (``--explain`` prints it verbatim).
    example_bad: ClassVar[str] = ""
    #: The sanctioned equivalent of :attr:`example_bad`.
    example_good: ClassVar[str] = ""
    default_severity: ClassVar[Severity] = Severity.ERROR

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.findings: list[Finding] = []

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def applies_to(cls, context: ModuleContext) -> bool:
        """Whether this rule runs on the module at all (path exemptions)."""
        return True

    def check(self) -> list[Finding]:
        """Run the visitor over the module and return its findings."""
        self.visit(self.context.tree)
        return self.findings

    # -- reporting -----------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.context.display_path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
                rule=self.rule_id,
                message=message,
                hint=self.hint,
                severity=self.default_severity,
            )
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Duplicate ids are a programming error in the analysis package
    itself, so they fail loudly at import time.
    """
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def registered_rules() -> dict[str, type[Rule]]:
    """The registry, keyed by rule id, in sorted-id order."""
    return {rule_id: _REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)}


def iter_rule_classes() -> Iterator[type[Rule]]:
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]
