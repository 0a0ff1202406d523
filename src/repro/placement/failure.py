"""Failure-mode planning (Section VI-C), with correlated failure domains.

Starting from a normal-mode consolidation, the planner perturbs the pool
with a fault scenario, switches the affected applications (those hosted
on the faulted servers) to their failure-mode QoS requirements, and
*repairs* the running plan on the surviving capacity. If every scenario
in a sweep can be absorbed, the pool needs no spare server — the
applications ride out the repair window at their (typically relaxed)
failure-mode QoS.

Repair-first what-ifs (:func:`_repair_assignment`): a what-if is a delta
on the normal assignment, not a new assignment. Survivors keep their
residents; each displaced workload goes to the used survivor it fills
tightest, and an idle survivor (or spare) is opened only when no used
one fits — the greedy placement loop
(:func:`repro.placement.greedy._greedy_place`) started from the
survivors. Residents of a *degraded* server stay while their group fits
the scaled limit and are otherwise evicted largest-peak-first until the
rest fits. The full greedy-seed + genetic search over every workload is
the fallback, reached only when repair cannot finish — a survivor's own
residents no longer fit under the case's QoS mix, or a displaced
workload finds no home. A repaired case reports
``result.algorithm == "repair"``; the ``failure.repaired`` /
``failure.replanned`` counters say how often each branch ran.

Scenario families, one per scope spec of :meth:`FailurePlanner.plan_scope`
(each case a :class:`FailureCase`: its :class:`FaultScenario` plus the
survivors' plan):

* ``"server"`` — the paper's sweep (:meth:`FailurePlanner.plan`):
  remove one used server at a time;
* ``"server:k"`` / ``"rack:k"`` / ``"zone:k"`` — every combination of
  ``k`` used servers (the paper's "can be extended to multiple node
  failures", Section III), globally or drawn *within* one rack/zone
  (correlated faults); combinatorial spaces beyond
  :data:`MAX_EXHAUSTIVE_CASES` are sampled with a deterministic seeded
  draw instead of refused;
* ``"rack"`` / ``"zone"`` — every rack or zone that hosts workloads
  fails at once (the :class:`~repro.resources.server.ServerSpec`
  topology labels define the domains);
* any of the three specs without a ``:k``, with ``degraded_factor`` —
  the servers of a domain *survive* with their capacity limits scaled
  by a factor in ``(0, 1)`` rather than disappearing; their residents
  still fall back to failure-mode QoS for the repair window.

:meth:`FailurePlanner.spare_sizing_curve` searches, per failure scope,
for the smallest number of cloned spare servers that makes the sweep
fully absorbable — the spares-needed-vs-failure-scope curve the
capacity outlook reports.

The planner deliberately re-translates only the affected applications by
default; pass ``relax_all=True`` to apply failure-mode QoS to every
application during the what-if (the cheaper, pool-wide degraded posture
used in the paper's case-study discussion of Table I).

:meth:`FailurePlanner.sweep` is the whole failure tier of a plan: the
single-server sweep, then what a :class:`FailureSweepPolicy` adds —
domain scopes, a degraded-server sweep and the spare-sizing curve — each
under its own checkpoint key prefix.

A sweep runs its cases one by one in the planner's process (a repaired
case costs hundredths of a second, too little to ship to a worker) and
checkpoints each as it completes, so a killed sweep loses at most one.
A case's document is its result alone (``null`` when infeasible); the
case itself is regenerated from the sweep's inputs, and a result that
does not place every workload on the surviving pool is recomputed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from repro.core.qos import PolicyMap, QoSPolicy, policy_for
from repro.engine import Checkpointer, ExecutionEngine
from repro.exceptions import InfeasiblePlacementError, PlacementError
from repro.placement.consolidation import (
    ConsolidationResult,
    Consolidator,
    build_result,
    restore_result,
)
from repro.placement.evaluation import PlacementEvaluator, drive
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.greedy import _greedy_place, least_slack_choice
from repro.resources.pool import DOMAIN_KINDS, ResourcePool
from repro.resources.server import ServerSpec
from repro.traces.allocation import CoSAllocationPair
from repro.traces.trace import DemandTrace
from repro.util.rng import derive_rng

#: Exhaustive multi-failure sweeps stop here: when a sweep's
#: combination space ``C(n, k)`` (summed over domains for
#: within-domain draws) exceeds this cap, the sweep evaluates a
#: deterministic seeded sample of this many combinations instead.
#: The ``failure.sweep_exhaustive`` / ``failure.sweep_sampled``
#: counters record which branch a run took.
MAX_EXHAUSTIVE_CASES = 512


def parse_scope(scope: str) -> tuple[str, Optional[int]]:
    """Parse a failure-scope spec into ``(domain kind, k)``.

    ``"server"`` — single-server loss; ``"server:2"`` — two concurrent
    losses anywhere; ``"rack"``/``"zone"`` — whole-domain loss;
    ``"rack:2"`` — two concurrent losses drawn within each rack.
    ``k is None`` means the whole domain fails at once.
    """
    base, _, k_text = scope.partition(":")
    if base not in DOMAIN_KINDS:
        raise PlacementError(
            f"failure scope must start with one of {DOMAIN_KINDS}, "
            f"got {scope!r}"
        )
    if not k_text:
        return base, 1 if base == "server" else None
    try:
        k = int(k_text)
    except ValueError:
        raise PlacementError(
            f"failure scope {scope!r}: expected an integer after ':'"
        ) from None
    if k < 1:
        raise PlacementError(f"failure scope {scope!r}: k must be >= 1")
    return base, k


def _scope_width(scope: str) -> tuple[int, float]:
    """A sortable width key: wider scopes sort later.

    Ordered by domain granularity first (server < rack < zone), then by
    the concurrent-loss count ``k`` (whole-domain loss counts as wider
    than any ``k``-subset of the same granularity).
    """
    base, k = parse_scope(scope)
    return DOMAIN_KINDS.index(base), math.inf if k is None else float(k)


@dataclass(frozen=True)
class FaultScenario:
    """One fault to what-if: servers lost and/or degraded together.

    ``kind`` names the scope family (``"server"``, ``"rack"``,
    ``"zone"``); ``domain`` carries the rack/zone label for
    domain-scoped scenarios. ``degraded`` lists ``(server, factor)``
    pairs for servers that survive with scaled capacity.
    """

    failed_servers: tuple[str, ...] = ()
    degraded: tuple[tuple[str, float], ...] = ()
    kind: str = "server"
    domain: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.failed_servers and not self.degraded:
            raise PlacementError(
                "a fault scenario must fail or degrade at least one server"
            )
        if self.kind not in DOMAIN_KINDS:
            raise PlacementError(
                f"scenario kind must be one of {DOMAIN_KINDS}, "
                f"got {self.kind!r}"
            )
        for name, factor in self.degraded:
            if not 0.0 < factor < 1.0:
                raise PlacementError(
                    f"degraded factor for {name!r} must be in (0, 1), "
                    f"got {factor}"
                )

    @property
    def label(self) -> str:
        """The stable display / checkpoint identity of the scenario.

        Built from structured fields only — never parsed back. Plain
        single- and multi-server losses keep the historical ``"+"``-joined
        form, so flat-pool checkpoint keys and plan hashes are unchanged.
        """
        if self.degraded:
            core = "degraded:" + "+".join(
                f"{name}@{factor:g}" for name, factor in self.degraded
            )
        else:
            core = "+".join(self.failed_servers)
        if self.kind != "server" and self.domain is not None:
            return f"{self.kind}:{self.domain}:{core}"
        return core

    def surviving(self, pool: ResourcePool) -> ResourcePool:
        """``pool`` without the failed servers, the degraded ones scaled."""
        if self.failed_servers:
            pool = pool.without(*self.failed_servers)
        if self.degraded:
            pool = pool.with_degraded(dict(self.degraded))
        return pool


@dataclass(frozen=True)
class FailureCase(FaultScenario):
    """One failure what-if: its scenario and the survivors' plan.

    ``affected_workloads`` are the workloads the faulted servers hosted;
    ``result`` is the plan on the surviving pool, ``None`` when the
    pool cannot absorb the fault.
    """

    affected_workloads: tuple[str, ...] = ()
    result: ConsolidationResult | None = None

    @property
    def feasible(self) -> bool:
        return self.result is not None

    @property
    def servers_used(self) -> int | None:
        return self.result.servers_used if self.result is not None else None

    @property
    def repaired(self) -> bool:
        """True when the normal plan was repaired in place; False when
        the case fell back to the full search (absorbed there or not)."""
        return self.result is not None and self.result.algorithm == "repair"

    def moved_from(self, normal_result: ConsolidationResult) -> tuple[str, ...]:
        """Workloads this case hosts on another server than the normal plan."""
        if self.result is None:
            return ()
        return self.result.moved_from(normal_result)


@dataclass(frozen=True)
class FailureReport:
    """All what-if cases of one sweep over one normal-mode plan."""

    cases: tuple[FailureCase, ...]

    @property
    def spare_server_needed(self) -> bool:
        """True when at least one failure cannot be absorbed in place."""
        return any(not case.feasible for case in self.cases)

    @property
    def all_supported(self) -> bool:
        return not self.spare_server_needed

    @property
    def infeasible_cases(self) -> tuple[FailureCase, ...]:
        return tuple(case for case in self.cases if not case.feasible)

    @property
    def repaired(self) -> int:
        """Cases absorbed by repairing the normal plan in place."""
        return sum(case.repaired for case in self.cases)

    @property
    def replanned(self) -> int:
        """Cases that fell back to the full search over every workload."""
        return len(self.cases) - self.repaired

    def case_for(self, label: str) -> FailureCase:
        """Look up a case by its label (a server name for the single
        sweep, a scenario label otherwise)."""
        for case in self.cases:
            if case.label == label or "+".join(case.failed_servers) == label:
                return case
        raise PlacementError(f"no failure case for server {label!r}")

    def summary(self) -> dict[str, object]:
        return {
            "cases": len(self.cases),
            "infeasible": len(self.infeasible_cases),
            "all_supported": self.all_supported,
            "repaired": self.repaired,
            "replanned": self.replanned,
        }


@dataclass(frozen=True)
class SparePoint:
    """One scope's entry on the spares-needed-vs-failure-scope curve."""

    scope: str
    cases: int
    infeasible_without_spares: int
    #: Smallest spare count that absorbs every case; ``None`` when even
    #: ``max_spares`` spares were not enough.
    spares_needed: Optional[int]


@dataclass(frozen=True)
class SpareSizingCurve:
    """Spares needed per failure scope, for one pool and plan."""

    points: tuple[SparePoint, ...]
    max_spares: int

    def monotone_in_scope(self) -> bool:
        """True when shrinking the failure scope never needs more spares.

        Points are ordered narrow → wide by :func:`_scope_width`; a
        scope the search could not satisfy within ``max_spares`` counts
        as needing ``max_spares + 1``.
        """
        ordered = sorted(self.points, key=lambda point: _scope_width(point.scope))
        needed = [
            point.spares_needed
            if point.spares_needed is not None
            else self.max_spares + 1
            for point in ordered
        ]
        return all(a <= b for a, b in zip(needed, needed[1:]))

    def to_payload(self) -> dict[str, object]:
        """A JSON-able form (plan summaries, benchmark artifacts)."""
        return {
            "max_spares": self.max_spares,
            "points": [
                {
                    "scope": point.scope,
                    "cases": point.cases,
                    "infeasible_without_spares": (
                        point.infeasible_without_spares
                    ),
                    "spares_needed": point.spares_needed,
                }
                for point in self.points
            ],
        }


@dataclass(frozen=True)
class FailureSweepPolicy:
    """What a plan's failure tier sweeps (:meth:`FailurePlanner.sweep`).

    The single-server sweep always runs (it is the paper's baseline
    report); ``scopes`` adds domain-scoped sweeps on top (see
    :func:`parse_scope` for the spec grammar). ``degraded_factor``
    additionally sweeps every used server degraded to that share of its
    capacity; ``spare_curve`` runs the spare-sizing search over the
    granularities the pool's topology actually has.
    ``max_cases``/``sample_seed`` bound the combinatorial sweeps
    (``None`` means :data:`MAX_EXHAUSTIVE_CASES` / seed ``0``).
    """

    scopes: tuple[str, ...] = ("rack",)
    degraded_factor: Optional[float] = None
    spare_curve: bool = False
    max_spares: int = 4
    max_cases: Optional[int] = None
    sample_seed: Optional[int] = None

    def __post_init__(self) -> None:
        for scope in self.scopes:
            parse_scope(scope)
        if self.degraded_factor is not None and not (
            0.0 < self.degraded_factor < 1.0
        ):
            raise PlacementError(
                f"degraded_factor must be in (0, 1), "
                f"got {self.degraded_factor}"
            )
        if self.max_spares < 0:
            raise PlacementError(
                f"max_spares must be >= 0, got {self.max_spares}"
            )
        if self.max_cases is not None and self.max_cases < 1:
            raise PlacementError(
                f"max_cases must be >= 1, got {self.max_cases}"
            )


class _SweepScratch:
    """State shared by the what-if cases of one planner.

    Holds what every case needs and none should rebuild — a translator
    on the planner's commitments and the demand lookup — plus, when the
    planner shares its cache, two memos of pure functions of the
    sweep's inputs: the ensemble's translation in one QoS mode does
    not depend on which server failed, and with ``relax_all`` every
    case degrades the same ensemble — so the cases share one
    translation per mode and, per distinct QoS mix, one
    :class:`PlacementEvaluator` whose required-capacity memo carries
    over from case to case (a single-mode evaluator, such as
    ``relax_all``'s, adopts its mode's matrices).
    Neither depends on the pool, the scope or the scenario (degraded
    servers and spares only change server *limits*, which key the
    evaluator's memo), so one scratch serves every sweep a planner runs
    over the same demands and policies: the rack sweep finds the
    survivor groups the server sweep solved. Sharing changes no results
    (cache hits return exactly what a fresh solve would), it only
    removes re-derivation. The evaluators count into the planner's
    instrumentation, so ``kernel.*`` and ``placement.cache_*`` include
    the what-ifs.
    """

    def __init__(self, planner: FailurePlanner, demands, policies) -> None:
        from repro.core.translation import QoSTranslator

        self.commitments = planner.translator.commitments
        self.tolerance = planner.tolerance
        self.kernel = planner.kernel
        self.share_cache = planner.share_cache
        self.instrumentation = planner.engine.instrumentation
        self.demands = tuple(demands)
        #: A copy, so a caller editing its policy map between two
        #: sweeps is handed a fresh scratch rather than stale memos.
        self.policies = (
            policies if isinstance(policies, QoSPolicy) else dict(policies)
        )
        self.translator = QoSTranslator(self.commitments)
        self.demand_by_name = {demand.name: demand for demand in self.demands}
        self.translations: dict = {}
        self.evaluators: dict = {}

    def serves(self, planner: FailurePlanner, demands, policies) -> bool:
        """Whether the memos were derived from these inputs."""
        return (
            planner.translator.commitments == self.commitments
            and planner.tolerance == self.tolerance
            and planner.kernel == self.kernel
            and planner.share_cache == self.share_cache
            and len(demands) == len(self.demands)
            and all(theirs is ours for theirs, ours in zip(demands, self.demands))
            and policies == self.policies
        )

    def evaluator_for(
        self, affected: Sequence[str], relax_all: bool
    ) -> PlacementEvaluator:
        """The evaluator of one case's QoS mix (memoised when sharing)."""
        relaxed = set(affected)
        mix = tuple(
            relax_all or name in relaxed for name in self.demand_by_name
        )
        evaluator = self.evaluators.get(mix)
        if evaluator is None:
            translations = self.translations if self.share_cache else {}
            evaluator = PlacementEvaluator(
                [
                    self._mode_pairs(failure_mode, translations)[row]
                    for row, failure_mode in enumerate(mix)
                ],
                self.commitments.cos2,
                tolerance=self.tolerance,
                kernel=self.kernel,
                instrumentation=self.instrumentation,
            )
            if self.share_cache:
                self.evaluators[mix] = evaluator
        return evaluator

    def _mode_pairs(
        self, failure_mode: bool, translations: dict
    ) -> list[CoSAllocationPair]:
        """Every workload's pair in one QoS mode, translated together.

        One :meth:`~repro.core.translation.QoSTranslator.translate_items`
        call per mode, on first use, so an evaluator of a single mode
        adopts the translation's matrices instead of copying them.
        """
        pairs = translations.get(failure_mode)
        if pairs is None:
            items = [
                (demand, policy_for(self.policies, name).mode(failure_mode))
                for name, demand in self.demand_by_name.items()
            ]
            pairs = [
                result.pair for result in self.translator.translate_items(items)
            ]
            translations[failure_mode] = pairs
        return pairs


def _repair_assignment(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    attribute: str,
    normal_assignment: Mapping[str, Sequence[str]],
    degraded: Sequence[str],
) -> Sequence[int] | None:
    """The normal assignment repaired onto the surviving ``pool``.

    Workloads whose server survived stay put; the displaced ones — their
    server is gone, or a degraded server evicted them — are placed by
    :func:`~repro.placement.greedy._greedy_place` from that start,
    largest peak allocation first, each on the used survivor it leaves
    the least slack (:func:`~repro.placement.greedy.least_slack_choice`).
    Returns the server index per workload, or ``None`` when repair
    cannot finish: an undegraded survivor's residents no longer fit
    under the evaluator's QoS mix, or a displaced workload fits on no
    survivor.
    """
    servers = pool.servers
    index_of = {name: index for index, name in enumerate(evaluator.names)}
    survivor_of = {server.name: index for index, server in enumerate(servers)}
    limits = [server.capacity_of(attribute) for server in servers]
    peaks = evaluator.peak_allocations()

    def largest_first(workload: int) -> tuple[float, int]:
        return (-peaks[workload], workload)

    groups: dict[int, list[int]] = {}
    for server_name, names in normal_assignment.items():
        survivor = survivor_of.get(server_name)
        residents = [index_of[name] for name in names]
        if survivor is not None and residents:
            groups[survivor] = residents

    used = sorted(groups)
    still_fit = evaluator.evaluate_groups(
        [(limits[survivor], groups[survivor]) for survivor in used]
    )
    for survivor, evaluation in zip(used, still_fit):
        if evaluation.fits:
            continue
        if servers[survivor].name not in degraded:
            return None
        # Evict largest-first until the rest fits the scaled limit: the
        # shortest fitting suffix, found in one batch (required capacity
        # is not monotone in the subset, so every suffix is asked).
        residents = sorted(groups.pop(survivor), key=largest_first)
        suffixes = [residents[cut:] for cut in range(1, len(residents) + 1)]
        fits = evaluator.evaluate_groups(
            [(limits[survivor], suffix) for suffix in suffixes]
        )
        kept = next(
            suffix for suffix, kept_fit in zip(suffixes, fits) if kept_fit.fits
        )
        if kept:
            groups[survivor] = kept

    start = [-1] * evaluator.n_workloads
    for survivor, residents in groups.items():
        for workload in residents:
            start[workload] = survivor
    (repaired,) = drive(
        _greedy_place(
            evaluator,
            pool,
            (least_slack_choice(limits),),
            attribute,
            start=start,
        )
    )
    if isinstance(repaired, InfeasiblePlacementError):
        return None
    return repaired


class FailurePlanner:
    """Evaluates whether fault scenarios can be absorbed by the pool."""

    def __init__(
        self,
        translator,
        *,
        config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        kernel: str = "batch",
        share_cache: bool = True,
        checkpointer: Checkpointer | None = None,
    ):
        self.translator = translator
        self.config = config
        self.tolerance = tolerance
        self.attribute = attribute
        #: Read for its instrumentation only: what-ifs run in-process.
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self.kernel = kernel
        self.share_cache = share_cache
        self.checkpointer = checkpointer
        #: One scratch for every sweep this planner runs (see
        #: :class:`_SweepScratch`); planner-scoped, never module-level.
        self._scratch: _SweepScratch | None = None

    def plan(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        pool,
        normal_result: ConsolidationResult,
        *,
        relax_all: bool = False,
        algorithm: str = "genetic",
        key_prefix: str = "",
    ) -> FailureReport:
        """The paper's sweep: one what-if per server the normal plan uses.

        See :meth:`plan_scope` (this is its ``scope="server"``) for the
        parameters.
        """
        return self.plan_scope(
            demands, policies, pool, normal_result, scope="server",
            relax_all=relax_all, algorithm=algorithm, key_prefix=key_prefix,
        )

    def sweep(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        pool: ResourcePool,
        normal_result: ConsolidationResult,
        policy: Optional[FailureSweepPolicy],
        *,
        relax_all: bool,
        algorithm: str,
    ) -> tuple[
        FailureReport,
        Optional[dict[str, FailureReport]],
        Optional[SpareSizingCurve],
    ]:
        """A plan's failure tier: the single-server sweep, then what
        ``policy`` adds — domain-scoped sweeps (keyed by scope spec), a
        degraded-server sweep (keyed ``degraded:server@<factor>``) and
        the spare-sizing curve. Returns ``(report, domain_reports,
        spare_curve)``; the last two are ``None`` when not asked for.

        Each sweep checkpoints under its own key prefix, so a killed
        multi-scope sweep resumes every completed case regardless of
        which scope was in flight.
        """
        report = self.plan(
            demands, policies, pool, normal_result,
            relax_all=relax_all, algorithm=algorithm,
        )
        if policy is None:
            return report, None, None
        domain_reports: dict[str, FailureReport] = {}
        for scope in policy.scopes:
            domain_reports[scope] = self.plan_scope(
                demands, policies, pool, normal_result, scope=scope,
                relax_all=relax_all, algorithm=algorithm,
                max_cases=policy.max_cases, sample_seed=policy.sample_seed,
                key_prefix=f"scope:{scope}",
            )
        if policy.degraded_factor is not None:
            label = f"degraded:server@{policy.degraded_factor:g}"
            domain_reports[label] = self.plan_scope(
                demands, policies, pool, normal_result, scope="server",
                degraded_factor=policy.degraded_factor,
                relax_all=relax_all, algorithm=algorithm, key_prefix=label,
            )
        spare_curve = None
        if policy.spare_curve:
            spare_curve = self.spare_sizing_curve(
                demands, policies, pool, normal_result,
                max_spares=policy.max_spares, relax_all=relax_all,
                algorithm=algorithm, max_cases=policy.max_cases,
                sample_seed=policy.sample_seed,
            )
        return report, domain_reports or None, spare_curve

    def plan_scope(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        pool,
        normal_result: ConsolidationResult,
        *,
        scope: str,
        degraded_factor: Optional[float] = None,
        relax_all: bool = False,
        algorithm: str = "genetic",
        max_cases: Optional[int] = None,
        sample_seed: Optional[int] = None,
        key_prefix: str = "",
    ) -> FailureReport:
        """Run the what-if for every scenario of one scope spec.

        Parameters
        ----------
        demands:
            The full workload ensemble (demand traces).
        policies:
            Per-workload :class:`~repro.core.qos.QoSPolicy` (or one
            shared policy) providing normal- and failure-mode QoS.
        pool:
            The pool the normal plan was computed for.
        normal_result:
            The normal-mode consolidation to perturb.
        scope:
            Which scenarios to sweep (see :func:`parse_scope` and
            :meth:`_scenarios`).
        degraded_factor:
            Sweep the scope's domains *degraded* instead of lost: their
            servers stay in the pool with every capacity limit
            multiplied by the factor (see
            :meth:`~repro.resources.pool.ResourcePool.with_degraded`),
            their residents switch to failure-mode QoS as if the
            servers had died. Not defined for ``:k`` subsets.
        relax_all:
            Apply failure-mode QoS to every application during the
            what-if instead of only those hosted on the faulted servers.
        max_cases / sample_seed:
            When a ``:k`` combination space exceeds ``max_cases``
            (default :data:`MAX_EXHAUSTIVE_CASES`) the sweep evaluates a
            deterministic sample of ``max_cases`` combinations drawn
            from a generator seeded by ``sample_seed`` (falling back to
            the search config's seed, then ``0``) instead of refusing
            or exploding.
        """
        cases = self._scenarios(
            scope, pool, normal_result, degraded_factor, max_cases, sample_seed
        )
        return self._evaluate_cases(
            cases, demands, policies, pool, normal_result, relax_all,
            algorithm, key_prefix=key_prefix,
        )

    def _scenarios(
        self,
        scope: str,
        pool,
        normal_result: ConsolidationResult,
        degraded_factor: Optional[float],
        max_cases: Optional[int],
        sample_seed: Optional[int],
    ) -> list[FailureCase]:
        """The pending cases (``result=None``) of one scope spec.

        This generator is all that differs between sweeps (the module
        docstring lists the families). Only domains hosting a workload
        are swept: losing an idle one leaves the running assignment
        untouched, exactly like the single sweep's unused servers.
        """
        base, k = parse_scope(scope)
        assignment = normal_result.assignment

        def hosted(servers: Sequence[str]) -> tuple[str, ...]:
            return tuple(
                sorted(
                    {
                        name
                        for server in servers
                        for name in assignment.get(server, ())
                    }
                )
            )

        if degraded_factor is not None:
            if ":" in scope:
                raise PlacementError(
                    f"failure scope {scope!r}: a degraded sweep takes whole "
                    "domains ('server', 'rack' or 'zone'), not k-subsets"
                )
            if not 0.0 < degraded_factor < 1.0:
                raise PlacementError(
                    "degraded capacity factor must be in (0, 1), "
                    f"got {degraded_factor}"
                )
        elif base == "server" and k == 1:
            return [
                FailureCase(
                    failed_servers=(server,), affected_workloads=hosted((server,))
                )
                for server in assignment
            ]
        if degraded_factor is not None or k is None:
            cases = []
            for label, members in pool.domains(base).items():
                affected = hosted(members)
                if not affected:
                    continue
                lost = degraded_factor is None
                cases.append(
                    FailureCase(
                        failed_servers=tuple(members) if lost else (),
                        degraded=()
                        if lost
                        else tuple((server, degraded_factor) for server in members),
                        kind=base,
                        domain=label if base != "server" else None,
                        affected_workloads=affected,
                    )
                )
            return cases
        used_servers = list(assignment)
        if k > len(used_servers):
            raise PlacementError(
                f"cannot fail {k} of {len(used_servers)} used servers"
            )
        if base == "server":
            groups: list[tuple[Optional[str], list[str]]] = [
                (None, used_servers)
            ]
        else:
            groups = [
                (label, [name for name in members if name in assignment])
                for label, members in pool.domains(base).items()
            ]
            groups = [
                (label, members) for label, members in groups if len(members) >= k
            ]
            if not groups:
                # No domain concentrates k used servers, so there is no
                # correlated k-fault to draw — the sweep is trivially
                # all-supported (unlike the global draw above, where
                # asking for more failures than used servers exist is a
                # caller error).
                return []
        return [
            FailureCase(
                failed_servers=combo, kind=base, domain=domain,
                affected_workloads=hosted(combo),
            )
            for domain, combo in self._combinations(
                groups, k, max_cases, sample_seed
            )
        ]

    def spare_sizing_curve(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        pool,
        normal_result: ConsolidationResult,
        *,
        scopes: Optional[Sequence[str]] = None,
        max_spares: int = 4,
        relax_all: bool = False,
        algorithm: str = "genetic",
        max_cases: Optional[int] = None,
        sample_seed: Optional[int] = None,
    ) -> SpareSizingCurve:
        """Smallest spare count absorbing every case, per failure scope.

        For each scope, spares are appended one at a time — clones of
        the pool's roomiest server, each in a fresh singleton failure
        domain — until the scope's sweep is fully absorbable or
        ``max_spares`` is exhausted (``spares_needed=None``). Whether
        the curve is monotone non-increasing as the scope shrinks is
        checked for each plan (:meth:`SpareSizingCurve.monotone_in_scope`),
        not guaranteed: a narrower fail-set is a subset of a wider one,
        but removing a workload can raise a server's required capacity.
        """
        if max_spares < 0:
            raise PlacementError(
                f"max_spares must be >= 0, got {max_spares}"
            )
        if scopes is None:
            derived = ["server"]
            if pool.has_topology("rack"):
                derived.append("rack")
            if pool.has_topology("zone"):
                derived.append("zone")
            scopes = derived
        template = max(
            pool.servers,
            key=lambda server: server.capacity_of(self.attribute),
        )
        points = []
        for scope in scopes:
            cases = 0
            infeasible_without_spares = 0
            spares_needed: Optional[int] = None
            for spares in range(max_spares + 1):
                spare_pool = pool.with_added(
                    *self._spare_servers(template, spares, pool)
                )
                report = self.plan_scope(
                    demands, policies, spare_pool, normal_result,
                    scope=scope, relax_all=relax_all, algorithm=algorithm,
                    max_cases=max_cases, sample_seed=sample_seed,
                    key_prefix=f"spare:{scope}:{spares}",
                )
                if spares == 0:
                    cases = len(report.cases)
                    infeasible_without_spares = len(report.infeasible_cases)
                if report.all_supported:
                    spares_needed = spares
                    break
            points.append(
                SparePoint(
                    scope=scope,
                    cases=cases,
                    infeasible_without_spares=infeasible_without_spares,
                    spares_needed=spares_needed,
                )
            )
        curve = SpareSizingCurve(points=tuple(points), max_spares=max_spares)
        self.engine.instrumentation.count("failure.spare_curves")
        return curve

    def _spare_servers(self, template, count: int, pool) -> list:
        """``count`` clones of the roomiest server, in fresh domains.

        Each spare lives in its own singleton rack/zone so a spare is
        never lost together with the domain it is meant to replace.
        """
        existing = set(pool.names())
        spares = []
        index = 0
        while len(spares) < count:
            name = f"spare-{index:02d}"
            index += 1
            if name in existing:
                continue
            spares.append(
                ServerSpec(
                    name,
                    template.cpus,
                    dict(template.attributes),
                    rack=f"{name}-rack",
                    zone=f"{name}-zone",
                )
            )
        return spares

    def _combinations(
        self,
        groups: Sequence[tuple[Optional[str], list[str]]],
        k: int,
        max_cases: Optional[int],
        sample_seed: Optional[int],
    ) -> list[tuple[Optional[str], tuple[str, ...]]]:
        """All (or a seeded sample of) k-subsets across the groups.

        The cap (``max_cases`` or :data:`MAX_EXHAUSTIVE_CASES`) guards
        the sweep against combinatorial blow-up: below it every
        combination is evaluated (``failure.sweep_exhaustive``); above
        it a deterministic seeded draw selects ``cap`` distinct
        combinations, groups weighted by their share of the space
        (``failure.sweep_sampled``).
        """
        cap = MAX_EXHAUSTIVE_CASES if max_cases is None else max_cases
        if cap < 1:
            raise PlacementError(f"max_cases must be >= 1, got {cap}")
        instrumentation = self.engine.instrumentation
        weights = [math.comb(len(members), k) for _, members in groups]
        total = sum(weights)
        if total <= cap:
            instrumentation.count("failure.sweep_exhaustive")
            return [
                (label, combo)
                for (label, members), weight in zip(groups, weights)
                if weight
                for combo in itertools.combinations(members, k)
            ]
        instrumentation.count("failure.sweep_sampled")
        seed = sample_seed
        if seed is None and self.config is not None:
            seed = self.config.seed
        # A concrete default keeps the sampled sweep deterministic even
        # when neither a sample seed nor a search seed was provided.
        rng = derive_rng(0 if seed is None else int(seed))
        probabilities = [weight / total for weight in weights]
        selected: list[tuple[Optional[str], tuple[str, ...]]] = []
        seen: set[tuple[Optional[str], tuple[str, ...]]] = set()
        attempts = 0
        max_attempts = cap * 64
        while len(selected) < cap and attempts < max_attempts:
            attempts += 1
            group_index = int(rng.choice(len(groups), p=probabilities))
            label, members = groups[group_index]
            rows = rng.choice(len(members), size=k, replace=False)
            combo = tuple(
                members[row] for row in sorted(int(row) for row in rows)
            )
            if (label, combo) in seen:
                continue
            seen.add((label, combo))
            selected.append((label, combo))
        instrumentation.count("failure.cases_sampled", len(selected))
        return selected

    def _evaluate_cases(
        self,
        cases: Sequence[FailureCase],
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        pool: ResourcePool,
        normal_result: ConsolidationResult,
        relax_all: bool,
        algorithm: str,
        key_prefix: str = "",
    ) -> FailureReport:
        """Evaluate every pending case, one by one, in this process."""
        workloads = [demand.name for demand in demands]
        known = set(workloads)
        missing = [
            name
            for names in normal_result.assignment.values()
            for name in names
            if name not in known
        ]
        if missing:
            raise PlacementError(
                f"normal plan references unknown workloads: {missing}"
            )
        if self._scratch is None or not self._scratch.serves(
            self, demands, policies
        ):
            self._scratch = _SweepScratch(self, demands, policies)
        instrumentation = self.engine.instrumentation
        prefix = f"failure/{key_prefix}/" if key_prefix else "failure/"
        with instrumentation.stage("failure_planning"):
            survivors = [case.surviving(pool) for case in cases]
            finished = [
                self._restore_case(case, prefix + case.label, workloads, surviving)
                for case, surviving in zip(cases, survivors)
            ]
            restored = sum(case is not None for case in finished)
            if restored:
                instrumentation.count("failure.case_resumes", restored)
            # Each case is checkpointed as soon as it exists: a kill
            # mid-sweep loses at most the case in flight.
            for position, (case, surviving) in enumerate(zip(cases, survivors)):
                if finished[position] is not None:
                    continue
                result = self._evaluate_case(
                    case, surviving, normal_result.assignment, relax_all,
                    algorithm,
                )
                finished[position] = replace(case, result=result)
                if self.checkpointer is not None:
                    self.checkpointer.save(
                        prefix + case.label,
                        {"result": None if result is None else result.to_payload()},
                    )
        report = FailureReport(cases=tuple(finished))
        instrumentation.count("failure.cases", len(cases))
        # Counted here, from computed and checkpoint-restored cases
        # alike, so fresh and resumed runs report the same.
        instrumentation.count("failure.repaired", report.repaired)
        instrumentation.count("failure.replanned", report.replanned)
        return report

    def _restore_case(
        self,
        case: FailureCase,
        key: str,
        workloads: Sequence[str],
        surviving: ResourcePool,
    ) -> FailureCase | None:
        """The finished case kept under ``key``, or ``None``.

        A document is ``{"result": payload | null}``; ``null`` restores
        the case as infeasible. A result restores only if it places
        every workload on the surviving pool
        (:func:`~repro.placement.consolidation.restore_result`);
        anything else reads as absent and the case is recomputed.
        """
        payload = None if self.checkpointer is None else self.checkpointer.load(key)
        if payload is None or "result" not in payload:
            return None
        if payload["result"] is None:
            return case
        result = restore_result(payload["result"], workloads, surviving.names())
        return None if result is None else replace(case, result=result)

    def _evaluate_case(
        self,
        case: FailureCase,
        surviving: ResourcePool,
        normal_assignment: Mapping[str, Sequence[str]],
        relax_all: bool,
        algorithm: str,
    ) -> ConsolidationResult | None:
        """One what-if's result: repair the normal plan on ``surviving``,
        re-plan only as the fallback; ``None`` when neither absorbs it."""
        evaluator = self._scratch.evaluator_for(case.affected_workloads, relax_all)
        assignment = _repair_assignment(
            evaluator,
            surviving,
            self.attribute,
            normal_assignment,
            [name for name, _ in case.degraded],
        )
        if assignment is not None:
            # Every used server is re-decided against its limit here; an
            # unfit group raises rather than being reported as absorbed.
            return build_result(
                evaluator, surviving, self.attribute, assignment, "repair"
            )
        # The fallback search keeps its own serial engine, so no
        # ``placement`` stage nests inside ``failure_planning``.
        consolidator = Consolidator(
            surviving,
            self.translator.commitments.cos2,
            config=self.config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            kernel=self.kernel,
        )
        try:
            return consolidator.consolidate_with_evaluator(
                evaluator, algorithm=algorithm
            )
        except PlacementError:
            return None
