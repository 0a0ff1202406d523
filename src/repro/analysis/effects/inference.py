"""Bottom-up effect inference over the project call graph.

The call graph's condensation (Tarjan strongly connected components,
computed iteratively so deep call chains never hit the recursion
limit) is processed callees-first. Each SCC's summary is the join of
its members' direct effects, their intrinsic call contributions, and
the summaries of out-of-component callees — one pass per component,
since summaries of processed components are final. Mutual recursion
inside a component is handled by giving every member the component's
joined summary, the standard (and exact, for a join-semilattice)
treatment.

Call sites whose callee carries a :data:`KNOWN_EFFECTS` override
contribute the override's ``exported`` set instead of the callee's raw
summary — that is the sanctioned-boundary semantics described in
:mod:`repro.analysis.effects.intrinsics`. :func:`verify_overrides`
closes the loop: for every override naming a function that exists in
the project, the *raw* inferred summary must equal the override's
``inferred`` declaration, so the manual table is an assertion, not a
parallel source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.effects.intrinsics import (
    KNOWN_EFFECTS,
    external_effects,
    method_effects,
)
from repro.analysis.effects.lattice import Effect, EffectSummary, Origin
from repro.analysis.effects.project import CallSite, EffectProject


def _resolve_project_target(
    project: EffectProject, site: CallSite
) -> str | None:
    """The project function a call site binds to, if any."""
    if site.kind != "name" or site.target is None:
        return None
    if site.target in project.functions:
        return site.target
    constructor = f"{site.target}.__init__"
    if constructor in project.functions:
        return constructor
    return None


def _external_contribution(site: CallSite, path: str) -> EffectSummary:
    """Intrinsic effects of a call that resolved outside the project."""
    if site.kind == "name" and site.target is not None:
        effects = external_effects(site.target, site.node)
        detail = f"{site.target}()"
    elif site.kind == "method" and site.target is not None:
        effects = method_effects(site.target)
        if (
            site.target == "save"
            and site.receiver is not None
            and "checkpoint" in site.receiver.split(".")[-1].lower()
        ):
            # ``checkpointer.save(...)`` is the sanctioned journaling
            # write (see KNOWN_EFFECTS for Checkpointer.save).
            effects = effects | {Effect.IO}
        detail = f".{site.target}() call"
    else:
        return EffectSummary.empty()
    if not effects:
        return EffectSummary.empty()
    origin = Origin(path=path, line=site.line, detail=detail)
    return EffectSummary.of((effect, origin) for effect in effects)


def _override_contribution(
    site: CallSite, path: str
) -> EffectSummary | None:
    """The exported override summary, when the callee has one."""
    if site.kind != "name" or site.target is None:
        return None
    override = KNOWN_EFFECTS.get(site.target)
    if override is None:
        return None
    origin = Origin(
        path=path,
        line=site.line,
        detail=f"{site.target}() [declared override]",
    )
    return EffectSummary.of(
        (effect, origin) for effect in override.exported
    )


def _tarjan_sccs(
    nodes: list[str], edges: dict[str, list[str]]
) -> list[list[str]]:
    """Iterative Tarjan; components are emitted callees-first."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = edges.get(node, [])
            while edge_index < len(successors):
                successor = successors[edge_index]
                edge_index += 1
                if successor not in index:
                    work[-1] = (node, edge_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def infer_effects(project: EffectProject) -> EffectProject:
    """Fill in ``project.summaries``."""
    names = sorted(project.functions)
    edges: dict[str, list[str]] = {}
    for name in names:
        info = project.functions[name]
        out: list[str] = []
        for site in info.calls:
            target = _resolve_project_target(project, site)
            if target is not None and target != name:
                out.append(target)
        edges[name] = out

    for component in _tarjan_sccs(names, edges):
        member_set = set(component)
        joined = EffectSummary.empty()
        for member in component:
            info = project.functions[member]
            joined = joined.join(info.direct)
            for site in info.calls:
                target = _resolve_project_target(project, site)
                override = _override_contribution(site, info.display_path)
                if override is not None:
                    joined = joined.join(override)
                    continue
                if target is not None:
                    if target in member_set:
                        continue  # intra-component: joined below anyway
                    callee_summary = project.summaries.get(target)
                    if callee_summary is not None:
                        joined = joined.join(callee_summary)
                    continue
                joined = joined.join(
                    _external_contribution(site, info.display_path)
                )
        for member in component:
            project.summaries[member] = joined
    return project


@dataclass(frozen=True)
class OverrideMismatch:
    """One KNOWN_EFFECTS entry whose declaration drifted from the code."""

    qualified: str
    declared: tuple[str, ...]
    inferred: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"{self.qualified}: declared inferred effects "
            f"{list(self.declared)} but inference derived "
            f"{list(self.inferred)}"
        )


def verify_overrides(project: EffectProject) -> list[OverrideMismatch]:
    """Check every resolvable override against the raw inferred summary.

    Entries whose function is absent from the project (e.g. when only
    a fixture subtree is analyzed) are skipped; the test suite runs
    this over ``src/`` where every entry must resolve.
    """
    if not project.summaries:
        infer_effects(project)
    mismatches: list[OverrideMismatch] = []
    for qualified in sorted(KNOWN_EFFECTS):
        override = KNOWN_EFFECTS[qualified]
        summary = project.summaries.get(qualified)
        if summary is None:
            continue
        if summary.effects != override.inferred:
            mismatches.append(
                OverrideMismatch(
                    qualified=qualified,
                    declared=tuple(
                        sorted(e.value for e in override.inferred)
                    ),
                    inferred=summary.names(),
                )
            )
    return mismatches
