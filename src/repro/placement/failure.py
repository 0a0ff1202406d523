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
(each case a :class:`FaultScenario`):

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

A sweep runs its cases one by one in the planner's process (a repaired
case costs hundredths of a second, too little to ship to a worker) and
checkpoints each as it completes, so a killed sweep loses at most one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.qos import QoSPolicy
from repro.engine import Checkpointer, ExecutionEngine
from repro.exceptions import InfeasiblePlacementError, PlacementError
from repro.placement.consolidation import ConsolidationResult, Consolidator
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


def _scenario_label(
    kind: str,
    domain: Optional[str],
    failed_servers: tuple[str, ...],
    degraded: tuple[tuple[str, float], ...],
) -> str:
    """The stable display / checkpoint identity of one scenario.

    Built from structured fields only — never parsed back. Plain
    single- and multi-server losses keep the historical ``"+"``-joined
    form, so flat-pool checkpoint keys and plan hashes are unchanged.
    """
    if degraded:
        core = "degraded:" + "+".join(
            f"{name}@{factor:g}" for name, factor in degraded
        )
    else:
        core = "+".join(failed_servers)
    if kind != "server" and domain is not None:
        return f"{kind}:{domain}:{core}"
    return core


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
        return _scenario_label(
            self.kind, self.domain, self.failed_servers, self.degraded
        )


@dataclass(frozen=True)
class FailureCase:
    """Outcome of one failure what-if.

    ``failed_servers`` is the structured identity of the fault (empty
    for pure degraded-capacity scenarios); ``degraded`` lists the
    ``(server, factor)`` pairs that survived with scaled limits;
    ``kind``/``domain`` record the scope the case came from.
    """

    failed_servers: tuple[str, ...]
    feasible: bool
    affected_workloads: tuple[str, ...]
    result: ConsolidationResult | None
    kind: str = "server"
    domain: Optional[str] = None
    degraded: tuple[tuple[str, float], ...] = ()

    @property
    def servers_used(self) -> int | None:
        return self.result.servers_used if self.result is not None else None

    @property
    def repaired(self) -> bool:
        """True when the normal plan was repaired in place; False when
        the case fell back to the full search (absorbed there or not)."""
        return self.result is not None and self.result.algorithm == "repair"

    @property
    def label(self) -> str:
        """The case's stable identity (matches its scenario's label)."""
        return _scenario_label(
            self.kind, self.domain, self.failed_servers, self.degraded
        )

    def moved_from(self, normal_result: ConsolidationResult) -> tuple[str, ...]:
        """Workloads this case hosts on another server than the normal plan."""
        if self.result is None:
            return ()
        home = {
            name: server
            for server, names in normal_result.assignment.items()
            for name in names
        }
        return tuple(
            sorted(
                name
                for server, names in self.result.assignment.items()
                for name in names
                if home.get(name) != server
            )
        )


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

    def spares_for(self, scope: str) -> Optional[int]:
        for point in self.points:
            if point.scope == scope:
                return point.spares_needed
        raise PlacementError(f"no spare-sizing point for scope {scope!r}")

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
    """What the pipeline's ``failure_check`` stage should sweep.

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


def _policy_for(
    policies: Mapping[str, QoSPolicy] | QoSPolicy, name: str
) -> QoSPolicy:
    if isinstance(policies, QoSPolicy):
        return policies
    try:
        return policies[name]
    except KeyError:
        raise PlacementError(
            f"no QoS policy given for workload {name!r}"
        ) from None


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
                (demand, _policy_for(self.policies, name).mode(failure_mode))
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


def _case_to_payload(case: FailureCase) -> dict:
    """A :class:`FailureCase` as a JSON-able checkpoint document.

    Structured fields only: nothing downstream re-parses a joined
    display string.
    """
    result = case.result
    return {
        "failed_servers": list(case.failed_servers),
        "kind": case.kind,
        "domain": case.domain,
        "degraded": [[name, factor] for name, factor in case.degraded],
        "feasible": case.feasible,
        "affected_workloads": list(case.affected_workloads),
        "result": None if result is None else result.to_payload(),
    }


def _case_from_payload(payload: dict) -> FailureCase | None:
    """Rebuild a persisted what-if case; ``None`` when unreadable.

    Search details are not persisted (the sweep's plan-level outputs —
    feasibility, assignment, capacities — never depend on them), so a
    restored case carries ``search=None`` exactly like a repaired case
    or one computed by a greedy algorithm; ``result.algorithm`` is
    persisted, so a restored case still says whether it was repaired.
    A document missing a structured field reads as unreadable and the
    case recomputes.
    """
    try:
        doc = payload["result"]
        result = None if doc is None else ConsolidationResult.from_payload(doc)
        domain = payload["domain"]
        return FailureCase(
            failed_servers=tuple(
                str(name) for name in payload["failed_servers"]
            ),
            feasible=bool(payload["feasible"]),
            affected_workloads=tuple(payload["affected_workloads"]),
            result=result,
            kind=str(payload["kind"]),
            domain=None if domain is None else str(domain),
            degraded=tuple(
                (str(name), float(factor))
                for name, factor in payload["degraded"]
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


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
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
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

    def plan_scope(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
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
        items = self._scenarios(
            scope, pool, normal_result, degraded_factor, max_cases, sample_seed
        )
        return self._sweep(
            items, demands, policies, pool, normal_result, relax_all,
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
    ) -> list[tuple[FaultScenario, tuple[str, ...]]]:
        """The ``(scenario, affected workloads)`` items of one scope spec.

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
                (FaultScenario(failed_servers=(server,)), hosted((server,)))
                for server in assignment
            ]
        if degraded_factor is not None or k is None:
            items = []
            for label, members in pool.domains(base).items():
                affected = hosted(members)
                if not affected:
                    continue
                domain = label if base != "server" else None
                if degraded_factor is None:
                    scenario = FaultScenario(
                        failed_servers=tuple(members), kind=base, domain=domain
                    )
                else:
                    scenario = FaultScenario(
                        degraded=tuple(
                            (server, degraded_factor) for server in members
                        ),
                        kind=base,
                        domain=domain,
                    )
                items.append((scenario, affected))
            return items
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
            (
                FaultScenario(failed_servers=combo, kind=base, domain=domain),
                hosted(combo),
            )
            for domain, combo in self._combinations(
                groups, k, max_cases, sample_seed
            )
        ]

    def spare_sizing_curve(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
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
        ``max_spares`` is exhausted (``spares_needed=None``). Because a
        narrower scope's fail-sets are subsets of a wider scope's, the
        resulting curve is monotone non-increasing as the scope shrinks
        (:meth:`SpareSizingCurve.monotone_in_scope` asserts exactly
        that; the hypothesis harness sweeps it over random ensembles).
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
            self.engine.instrumentation.event(
                "failure.spare_point",
                scope=scope,
                spares_needed=spares_needed,
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
        (``failure.sweep_sampled``, with the space size recorded on the
        ``failure.sweep_sampled`` event).
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
        instrumentation.event(
            "failure.sweep_sampled",
            space=total,
            cap=cap,
            selected=len(selected),
        )
        return selected

    def _sweep(
        self,
        items: Sequence[tuple[FaultScenario, tuple[str, ...]]],
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        relax_all: bool,
        algorithm: str,
        key_prefix: str = "",
    ) -> FailureReport:
        """Evaluate every what-if case, one by one, in this process."""
        known = {demand.name for demand in demands}
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
        with instrumentation.stage("failure_planning"):
            cases = [
                self._load_case(scenario.label, key_prefix)
                for scenario, _ in items
            ]
            restored = sum(case is not None for case in cases)
            if restored:
                instrumentation.count("failure.case_resumes", restored)
                instrumentation.event(
                    "failure.cases_resumed",
                    restored=restored,
                    pending=len(items) - restored,
                )
            # Each case is checkpointed as soon as it exists: a kill
            # mid-sweep loses at most the case in flight.
            for position, (scenario, affected) in enumerate(items):
                if cases[position] is None:
                    cases[position] = self._evaluate_case(
                        scenario, affected, pool, normal_result.assignment,
                        relax_all, algorithm,
                    )
                    self._save_case(cases[position], key_prefix)
        report = FailureReport(cases=tuple(cases))
        instrumentation.count("failure.cases", len(items))
        # Counted here, from computed and checkpoint-restored cases
        # alike, so fresh and resumed runs report the same.
        instrumentation.count("failure.repaired", report.repaired)
        instrumentation.count("failure.replanned", report.replanned)
        return report

    def _evaluate_case(
        self,
        scenario: FaultScenario,
        affected: tuple[str, ...],
        pool,
        normal_assignment: Mapping[str, Sequence[str]],
        relax_all: bool,
        algorithm: str,
    ) -> FailureCase:
        """One what-if: repair the normal plan, re-plan only as the fallback."""
        surviving = pool
        if scenario.failed_servers:
            surviving = surviving.without(*scenario.failed_servers)
        if scenario.degraded:
            surviving = surviving.with_degraded(dict(scenario.degraded))
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
        evaluator = self._scratch.evaluator_for(affected, relax_all)
        assignment = _repair_assignment(
            evaluator,
            surviving,
            self.attribute,
            normal_assignment,
            [name for name, _ in scenario.degraded],
        )
        result: ConsolidationResult | None
        if assignment is not None:
            # Every used server is re-decided against its limit here; an
            # unfit group raises rather than being reported as absorbed.
            result = consolidator._build_result(
                evaluator, assignment, "repair", None
            )
        else:
            try:
                result = consolidator.consolidate_with_evaluator(
                    evaluator, algorithm=algorithm
                )
            except PlacementError:
                result = None
        return FailureCase(
            failed_servers=scenario.failed_servers,
            feasible=result is not None,
            affected_workloads=affected,
            result=result,
            kind=scenario.kind,
            domain=scenario.domain,
            degraded=scenario.degraded,
        )

    def _case_key(self, label: str, key_prefix: str = "") -> str:
        if key_prefix:
            return f"failure/{key_prefix}/{label}"
        return f"failure/{label}"

    def _load_case(
        self, label: str, key_prefix: str = ""
    ) -> FailureCase | None:
        if self.checkpointer is None:
            return None
        payload = self.checkpointer.load(self._case_key(label, key_prefix))
        if payload is None:
            return None
        return _case_from_payload(payload)

    def _save_case(self, case: FailureCase, key_prefix: str = "") -> None:
        if self.checkpointer is not None:
            self.checkpointer.save(
                self._case_key(case.label, key_prefix),
                _case_to_payload(case),
            )
