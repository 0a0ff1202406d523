"""Interprocedural effect & determinism inference.

The module-scope rules check one file at a time; this package answers
the question they cannot: *what does a callable do, transitively?* It
builds a project-wide call graph over every analyzed module (reusing
the ImportMap canonical-name resolution the per-module rules already
trust), computes a per-function :class:`EffectSummary` over a small
effect lattice, and propagates summaries bottom-up through the
condensation of the call graph (Tarjan SCCs, fixpoint within each
component).

Two consumers read the result: **ROP013** — a transitively impure
callable (ambient RNG, wall clock, global mutation) submitted to a
``SerialExecutor`` / ``ResilientExecutor`` session — and the typestate
checker (ROP017–ROP020), which resolves callees through the same
function index.

Manual knowledge lives in :data:`KNOWN_EFFECTS` as *verified
overrides*: each entry declares both what inference must derive for
the function (checked by :func:`verify_overrides` and the test suite,
so the table can never drift from the code) and what effect set call
sites should inherit (the sanctioned contract — e.g.
``derive_rng(None)`` is ambient by design and policed by ROP001, so
callers do not inherit the ambient-RNG effect).
"""

from repro.analysis.effects.intrinsics import KNOWN_EFFECTS, EffectOverride
from repro.analysis.effects.lattice import Effect, EffectSummary, Origin
from repro.analysis.effects.project import (
    EffectProject,
    FunctionInfo,
    ProjectContext,
    build_project,
)
from repro.analysis.effects.inference import (
    OverrideMismatch,
    infer_effects,
    verify_overrides,
)

__all__ = [
    "Effect",
    "EffectOverride",
    "EffectProject",
    "EffectSummary",
    "FunctionInfo",
    "KNOWN_EFFECTS",
    "Origin",
    "OverrideMismatch",
    "ProjectContext",
    "build_project",
    "infer_effects",
    "verify_overrides",
]
