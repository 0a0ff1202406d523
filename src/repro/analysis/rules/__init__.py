"""Domain rules for the R-Opus invariant linter.

Importing this package registers every built-in rule; the registry in
:mod:`repro.analysis.rules.base` is the single source of truth the
runner and the reporters consult.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    bare_assert,
    effect_rules,
    executor_submission,
    float_equality,
    mutable_default,
    naked_rng,
    typestate_rules,
    unvalidated_boundary,
    wall_clock,
)
from repro.analysis.rules.base import (
    ImportMap,
    ModuleContext,
    ProjectRule,
    Rule,
    dotted_name,
    iter_rule_classes,
    register,
    registered_rules,
)

__all__ = [
    "ImportMap",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "dotted_name",
    "iter_rule_classes",
    "register",
    "registered_rules",
]
