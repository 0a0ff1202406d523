"""ROP011 — unit-annotated dataclass fields are range-checked.

The paper's formulas mix scalar shapes ``float`` cannot distinguish:
fractions in ``[0, 1]``, percentages in ``[0, 100]``, slot counts.
``repro.units`` gives them ``Annotated`` markers; this rule holds the
dataclasses that carry them to the promise the marker makes, by
requiring a ``__post_init__`` check for every marked field.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.findings import Severity
from repro.analysis.rules.base import ImportMap, Rule, register
from repro.units import Unit, unit_for_annotation

#: Canonical module of the unit markers, for annotation checks.
_UNITS_MODULE = "repro.units"


def annotation_unit(node: ast.expr | None, imports: ImportMap) -> Unit | None:
    """The unit named by an annotation expression, if any.

    Recognizes the markers by canonical name (``repro.units.Percent``
    however the module imported it), by bare name when spelled
    directly, and inside ``Optional[...]`` / ``X | None`` wrappers.
    String (quoted) annotations are parsed and resolved the same way.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    # Optional[X] / Union[X, None] / X | None wrappers.
    if isinstance(node, ast.Subscript):
        wrapper = imports.resolve_node(node.value)
        if wrapper in {
            "typing.Optional",
            "typing.Union",
            "Optional",
            "Union",
        }:
            inner = node.slice
            elements = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                unit = annotation_unit(element, imports)
                if unit is not None:
                    return unit
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            unit = annotation_unit(side, imports)
            if unit is not None:
                return unit
        return None
    canonical = imports.resolve_node(node)
    if canonical is None:
        return None
    if canonical.startswith(f"{_UNITS_MODULE}."):
        return unit_for_annotation(canonical)
    # A bare spelling that did not resolve through an import only
    # counts when it is exactly a marker name (fixture/doc usage).
    if "." not in canonical:
        return unit_for_annotation(canonical)
    return None


@register
class UnvalidatedBoundaryRule(Rule):
    """ROP011 — unit-annotated dataclass fields must be validated.

    A frozen dataclass is the translation pipeline's trust boundary:
    once constructed, every consumer believes its fields. A field
    annotated with a unit marker therefore must be range-checked in
    ``__post_init__`` — either through the matching ``require_*``
    helper or an explicit comparison — or the annotation is a promise
    nobody keeps.
    """

    rule_id: ClassVar[str] = "ROP011"
    name: ClassVar[str] = "unvalidated-boundary"
    description: ClassVar[str] = (
        "a dataclass field annotated with a repro.units marker must be "
        "validated in __post_init__ (require_* call or explicit range "
        "comparison); an unchecked unit annotation is an unenforced "
        "contract."
    )
    hint: ClassVar[str] = (
        "add a __post_init__ validating the field with "
        "require_fraction/require_probability or an explicit range "
        "check"
    )
    rationale: ClassVar[str] = (
        "Dataclasses are the ingestion boundary: workload specs and "
        "SLA parameters enter here from config files. A unit "
        "annotation without a __post_init__ check documents a range "
        "nothing enforces, so a 99.9 meant as 0.999 sails straight "
        "into the planner."
    )
    example_bad: ClassVar[str] = (
        "@dataclass(frozen=True)\n"
        "class Sla:\n"
        "    target: Probability"
    )
    example_good: ClassVar[str] = (
        "@dataclass(frozen=True)\n"
        "class Sla:\n"
        "    target: Probability\n"
        "    def __post_init__(self):\n"
        "        require_probability(self.target, 'target')"
    )
    default_severity: ClassVar[Severity] = Severity.ERROR

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_dataclass(node):
            self._check_dataclass(node)
        self.generic_visit(node)

    def _is_dataclass(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            canonical = self.context.imports.resolve_node(target)
            if canonical in {"dataclasses.dataclass", "dataclass"}:
                return True
        return False

    def _check_dataclass(self, node: ast.ClassDef) -> None:
        unit_fields: dict[str, tuple[ast.AnnAssign, str]] = {}
        post_init: ast.FunctionDef | None = None
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                unit = annotation_unit(
                    statement.annotation, self.context.imports
                )
                if unit is not None:
                    unit_fields[statement.target.id] = (statement, unit.name)
            elif (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "__post_init__"
            ):
                post_init = statement

        if not unit_fields:
            return
        validated = (
            self._validated_fields(post_init) if post_init is not None else set()
        )
        for field_name, (statement, unit_name) in unit_fields.items():
            if field_name not in validated:
                where = (
                    "no __post_init__ exists"
                    if post_init is None
                    else "__post_init__ never checks it"
                )
                self.report(
                    statement,
                    f"field {field_name!r} of {node.name} is annotated "
                    f"{unit_name} but {where}",
                )

    def _validated_fields(self, post_init: ast.FunctionDef) -> set[str]:
        """Field names ``__post_init__`` validates.

        A field counts as validated when ``self.<field>`` appears as an
        argument to a ``require_*``-style call or as an operand of a
        comparison (the manual ``if not 0 < self.x <= 1: raise``
        idiom).
        """
        validated: set[str] = set()
        for node in ast.walk(post_init):
            if isinstance(node, ast.Call):
                canonical = self.context.imports.resolve_node(node.func)
                name = (canonical or "").rsplit(".", 1)[-1]
                if name.startswith("require_"):
                    for argument in node.args:
                        validated |= self._self_fields(argument)
            elif isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    validated |= self._self_fields(operand)
        return validated

    @staticmethod
    def _self_fields(node: ast.expr) -> set[str]:
        fields: set[str] = set()
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            ):
                fields.add(child.attr)
        return fields
