"""ROP013 — the project-scope determinism rule on the effect engine.

The rule consumes :class:`repro.analysis.effects.ProjectContext`
(the whole-project function index plus inferred effect summaries)
instead of a single module, so it can see *through* call chains:
a worker function that calls a helper that calls ``random.random()``
is just as flagged as one that draws directly.

The imports from :mod:`repro.analysis.effects` are deliberately
deferred into the method bodies — rule modules are imported by
``repro.analysis.rules.__init__`` while the effects package may still
be mid-import (it imports :mod:`repro.analysis.rules.base` for the
ImportMap), and a module-level import here would complete the cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules.base import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.effects.lattice import Origin


def _origin_note(origin: "Origin | None") -> str:
    """Cite an effect's primitive site (detail and file)."""
    if origin is None:
        return ""
    detail = getattr(origin, "detail", "")
    path = getattr(origin, "path", "")
    return f" ({detail} in {path})" if detail else ""


@register
class TransitivelyImpureSubmission(ProjectRule):
    """ROP013: impure callables must not cross the executor boundary.

    A work unit submitted to ``Executor.map``/``submit`` runs in a
    worker process; if it (or anything it transitively calls) draws
    ambient RNG, reads the wall clock, or mutates module globals, then
    serial and parallel runs of the same plan diverge — precisely the
    failure mode the engine's hash-parity tests exist to catch, found
    here before the code ever runs.
    """

    rule_id: ClassVar[str] = "ROP013"
    name: ClassVar[str] = "impure-task-submission"
    description: ClassVar[str] = (
        "Transitively impure callable (ambient RNG, wall clock, or "
        "global mutation) submitted to an executor."
    )
    hint: ClassVar[str] = (
        "Thread determinism through arguments: derive a per-task "
        "generator with derive_shard_seed()/derive_rng(seed), take "
        "timestamps in the driver, and pass state explicitly instead "
        "of mutating module globals from workers."
    )
    rationale: ClassVar[str] = (
        "The impurity may live three calls below the submitted "
        "function, where no module-scope rule can see it; the effect "
        "fixpoint propagates it to the submission site, which is the "
        "one place the fix (threading seeds and clocks through "
        "arguments) must be applied."
    )
    example_bad: ClassVar[str] = (
        "def run_shard(shard):\n"
        "    return simulate(shard)  # simulate() uses random.random\n"
        "pool.submit(run_shard, shard)"
    )
    example_good: ClassVar[str] = (
        "def run_shard(shard, seed):\n"
        "    return simulate(shard, derive_rng(seed))\n"
        "pool.submit(run_shard, shard, derive_shard_seed(base, i))"
    )
    default_severity: ClassVar[Severity] = Severity.ERROR

    def check(self) -> list[Finding]:
        from repro.analysis.effects.intrinsics import KNOWN_EFFECTS
        from repro.analysis.effects.lattice import TASK_UNSAFE

        effects_project = self.project.effects
        for info in effects_project.functions.values():
            for site in info.submissions:
                if site.work_target is None:
                    continue
                override = KNOWN_EFFECTS.get(site.work_target)
                if override is not None:
                    unsafe = override.exported & TASK_UNSAFE
                    summary = None
                else:
                    summary = effects_project.summaries.get(
                        site.work_target
                    )
                    if summary is None:
                        continue
                    unsafe = summary.effects & TASK_UNSAFE
                if not unsafe:
                    continue
                names = ", ".join(sorted(e.value for e in unsafe))
                note = ""
                if summary is not None:
                    first = min(unsafe, key=lambda e: e.value)
                    note = _origin_note(summary.origin(first))
                self.report_at(
                    path=info.display_path,
                    line=site.line,
                    column=site.col + 1,
                    message=(
                        f"'{site.work_repr}' is submitted to an "
                        f"executor but is transitively impure: "
                        f"{names}{note}."
                    ),
                )
        return self.findings
