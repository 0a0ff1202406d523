"""The R-Opus facade: translate, place, and plan for failures.

:class:`ROpus` wires the framework's pieces together the way Figure 2 of
the paper draws them:

1. the pool operator supplies :class:`~repro.core.cos.PoolCommitments`
   and a :class:`~repro.resources.pool.ResourcePool`;
2. each application owner supplies a
   :class:`~repro.core.qos.QoSPolicy` (normal- and failure-mode QoS);
3. the QoS translation maps demands onto the two CoS;
4. the workload placement service consolidates the translated workloads
   onto few servers, and the failure planner reports whether a spare
   server is needed.

:meth:`ROpus.plan` runs straight through: translate, then place —
one monolithic consolidation with ``sharding="off"`` (the default), or
the hierarchical tier (:mod:`repro.placement.sharding`: cluster
workloads by demand shape, plan sub-pools, refine across them) with
``"auto"`` or an explicit shard count — then the failure what-ifs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.core.cos import PoolCommitments
from repro.core.qos import ApplicationQoS, PolicyMap, QoSPolicy, policy_for
from repro.core.translation import QoSTranslator, TranslationResult
from repro.engine import Checkpointer, ExecutionEngine
from repro.exceptions import ConfigurationError
from repro.placement.affinity import PlacementConstraints
from repro.placement.clustering import demand_shape_features
from repro.placement.consolidation import ConsolidationResult, Consolidator
from repro.placement.failure import (
    FailurePlanner,
    FailureReport,
    FailureSweepPolicy,
    SpareSizingCurve,
)
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.sharding import (
    HierarchicalPlanner,
    ShardedPlacementResult,
    ShardingPolicy,
)
from repro.resources.pool import ResourcePool
from repro.traces.trace import DemandTrace

def _policy_digest(policies: PolicyMap) -> object:
    """A JSON-able canonical form of the policy input.

    ``QoSPolicy`` and everything it nests are frozen dataclasses of
    floats and strings, so ``repr`` is a stable value encoding.
    """
    if isinstance(policies, QoSPolicy):
        return repr(policies)
    return sorted((name, repr(policy)) for name, policy in policies.items())


def planning_fingerprint(
    demands: Sequence[DemandTrace],
    policies: PolicyMap,
    pool: ResourcePool,
    commitments: PoolCommitments,
    search_config: GeneticSearchConfig | None,
    *,
    tolerance: float,
    attribute: str,
    kernel: str,
    algorithm: str,
    plan_failures: bool,
    relax_all_on_failure: bool,
    previous: ConsolidationResult | None,
    sharding: ShardingPolicy | None = None,
    constraints: PlacementConstraints | None = None,
    failure_policy: FailureSweepPolicy | None = None,
) -> str:
    """A digest of everything a planning run's decisions depend on.

    Checkpoints stamped with this fingerprint are only ever resumed by
    a run whose inputs hash identically — changing a trace, the pool,
    the seed (inside ``search_config``), or any planning knob — the
    sharding policy included — makes old checkpoints read as absent
    instead of silently steering the new run. Execution backend and
    worker count are deliberately excluded: results are
    backend-independent, so a resume may legitimately use different
    parallelism.
    """
    document = {
        "demands": [
            [
                demand.name,
                demand.attribute,
                hashlib.sha256(demand.values.tobytes()).hexdigest(),
                repr(demand.calendar),
            ]
            for demand in demands
        ],
        "policies": _policy_digest(policies),
        "pool": [
            [
                server.name,
                server.cpus,
                sorted(server.attributes.items()),
                server.rack,
                server.zone,
            ]
            for server in pool.servers
        ],
        "commitments": repr(commitments),
        "search_config": repr(search_config),
        "tolerance": repr(tolerance),
        "attribute": attribute,
        "kernel": kernel,
        "algorithm": algorithm,
        "plan_failures": plan_failures,
        "relax_all_on_failure": relax_all_on_failure,
        "previous": (
            None
            if previous is None
            else sorted(
                (server, list(names))
                for server, names in previous.assignment.items()
            )
        ),
        "sharding": None if sharding is None else repr(sharding),
        "constraints": None if constraints is None else repr(constraints),
        "failure_policy": (
            None if failure_policy is None else repr(failure_policy)
        ),
        # How a what-if is searched. A constant: what-if documents a
        # pre-repair run left behind (every case a full re-plan) read as
        # absent instead of resuming into a sweep that is half full
        # search, half repair.
        "failure_search": "repair-first",
    }
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _hashed_cases(report: FailureReport, label: str) -> list[dict]:
    """A sweep's cases as :meth:`CapacityPlan.plan_hash` digests them:
    each case's ``label``, feasibility and assignment."""
    return [
        {
            label: case.label,
            "feasible": case.feasible,
            "assignment": (
                None
                if case.result is None
                else {
                    server: list(names)
                    for server, names in case.result.assignment.items()
                }
            ),
        }
        for case in report.cases
    ]


@dataclass(frozen=True)
class CapacityPlan:
    """Everything the capacity manager needs from one planning run.

    ``timings`` maps stage names (``translation``, ``placement``,
    ``failure_planning``, and — for sharded runs — ``clustering``,
    ``sharding``, ``refinement``) to the seconds this run spent in
    each, as recorded by the engine's instrumentation; ``counters``
    holds the run's counter increments (kernel decision steps, the
    rows they judged — ``kernel.row_evaluations`` — and how many of
    those reached the backlog pass — ``kernel.backlog_rows`` — bracket
    iterations, evaluation cache hits/misses, shards' included, and
    shard planning's ``broadcast.sessions``, ...). ``kernel.fused_rows``
    and ``kernel.f32_retries`` count the fused kernel's fast-path rows and
    verification fallbacks and stay zero on every other kernel; every
    mode records the full ``kernel.*`` set, zeros included, so counter
    maps are comparable across modes and scales. A shard plan runs on
    a consolidator of its own; its ``placement.cache_*``, ``kernel.*``,
    ``placement.ga_generations`` and ``placement.consolidations``
    come back into these counters on either backend (a solve merged
    across the shards of one unit counts once, so ``kernel.calls``
    depends on how the shards were grouped into units).
    ``sharding`` is the hierarchical tier's summary
    (shard count and sizes, migration rounds, per-shard timings) when
    the run was sharded, ``None`` otherwise.
    """

    translations: Mapping[str, TranslationResult]
    consolidation: ConsolidationResult
    failure_report: Optional[FailureReport]
    timings: Mapping[str, float] = field(default_factory=dict)
    counters: Mapping[str, float] = field(default_factory=dict)
    sharding: Optional[Mapping[str, object]] = None
    #: Domain-scoped failure sweeps (scope spec → report) when the run
    #: had a :class:`~repro.placement.failure.FailureSweepPolicy`.
    domain_reports: Optional[Mapping[str, FailureReport]] = None
    #: The spares-needed-vs-failure-scope curve when the policy asked
    #: for the spare-sizing search.
    spare_curve: Optional[SpareSizingCurve] = None

    @property
    def servers_used(self) -> int:
        return self.consolidation.servers_used

    @property
    def spare_server_needed(self) -> Optional[bool]:
        """Whether failures require a spare (``None`` if not analysed)."""
        if self.failure_report is None:
            return None
        return self.failure_report.spare_server_needed

    def summary(self) -> dict[str, object]:
        """A compact report of the headline planning quantities."""
        return {
            "workloads": len(self.translations),
            "servers_used": self.servers_used,
            "sum_required": self.consolidation.sum_required,
            "sum_peak_allocations": self.consolidation.sum_peak_allocations,
            "sharing_savings": self.consolidation.sharing_savings(),
            "spare_server_needed": self.spare_server_needed,
            "failure_sweep": (
                None
                if self.failure_report is None
                else self.failure_report.summary()
            ),
            "failure_domains": (
                None
                if self.domain_reports is None
                else {
                    scope: report.summary()
                    for scope, report in self.domain_reports.items()
                }
            ),
            "spare_curve": (
                None
                if self.spare_curve is None
                else self.spare_curve.to_payload()
            ),
            "sharding": None if self.sharding is None else dict(self.sharding),
            "stage_timings": dict(self.timings),
            "counters": dict(self.counters),
            "resilience": self.resilience_summary(),
        }

    def resilience_summary(self) -> dict[str, float]:
        """The run's recovery telemetry: retries, respawns, fallbacks,
        checkpoint activity, and resumed work, pulled out of the full
        counter map so operators see degraded-but-successful runs at a
        glance (an all-zero map means the run never needed recovery)."""
        prefixes = ("resilience.", "checkpoint.")
        names = (
            "failure.case_resumes",
            "placement.consolidation_resumes",
            "placement.shard_resumes",
        )
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith(prefixes) or name in names
        }

    def plan_hash(self) -> str:
        """A digest of the plan's *decisions*, stable across recovery.

        Hashes what the capacity manager would act on — the
        consolidation assignment and per-server required capacities,
        plus each failure case's feasibility and assignment — and
        nothing operational (timings, counters, search trajectories).
        A run that survived injected faults via retries, or resumed
        from a checkpoint after a kill, therefore hashes identically to
        an undisturbed run; a changed hash means the *plan* changed.

        Domain-scoped sweeps and the spare-sizing curve join the
        document only when the run produced them, so plans from runs
        without a failure policy hash exactly as they always have.
        """
        document = {
            "consolidation": {
                "assignment": {
                    server: list(names)
                    for server, names in self.consolidation.assignment.items()
                },
                "required_by_server": dict(
                    self.consolidation.required_by_server
                ),
                "sum_required": self.consolidation.sum_required,
            },
            "failures": (
                None
                if self.failure_report is None
                else _hashed_cases(self.failure_report, "failed_server")
            ),
        }
        if self.domain_reports is not None:
            document["failure_domains"] = {
                scope: _hashed_cases(report, "case")
                for scope, report in self.domain_reports.items()
            }
        if self.spare_curve is not None:
            document["spare_curve"] = self.spare_curve.to_payload()
        canonical = json.dumps(document, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ROpus:
    """The composite framework, end to end.

    >>> from repro.core.cos import PoolCommitments
    >>> from repro.core.qos import QoSPolicy, case_study_qos
    >>> from repro.resources.pool import ResourcePool
    >>> from repro.resources.server import homogeneous_servers
    >>> framework = ROpus(
    ...     PoolCommitments.of(theta=0.95),
    ...     ResourcePool(homogeneous_servers(4)),
    ... )  # then framework.plan(demands, QoSPolicy(case_study_qos()))
    """

    def __init__(
        self,
        commitments: PoolCommitments,
        pool: ResourcePool,
        *,
        search_config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        kernel: str = "batch",
        share_sweep_cache: bool = True,
        checkpointer: Checkpointer | None = None,
        sharding: Union[int, str, ShardingPolicy] = "off",
        cluster_seed: Optional[int] = None,
        refine_rounds: int = 2,
        constraints: PlacementConstraints | None = None,
        failure_policy: FailureSweepPolicy | None = None,
    ):
        self.commitments = commitments
        self.pool = pool
        self.search_config = search_config
        self.tolerance = tolerance
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self.kernel = kernel
        self.share_sweep_cache = share_sweep_cache
        self.checkpointer = checkpointer
        if isinstance(sharding, ShardingPolicy):
            self.sharding_policy = sharding
        else:
            self.sharding_policy = ShardingPolicy(
                shards=sharding,
                cluster_seed=cluster_seed,
                refine_rounds=refine_rounds,
            )
        if checkpointer is not None and checkpointer.instrumentation is None:
            checkpointer.instrumentation = self.engine.instrumentation
        #: Anti-affinity constraints, threaded into every consolidation
        #: this framework runs (monolithic, sharded, and failure
        #: what-ifs plan *around* them via the priced objective).
        self.constraints = constraints
        #: What the failure what-ifs sweep beyond the paper's
        #: single-server baseline (domain scopes, degraded servers, the
        #: spare-sizing curve). ``None`` keeps the historical behavior.
        self.failure_policy = failure_policy
        self.translator = QoSTranslator(
            commitments, instrumentation=self.engine.instrumentation
        )

    def translate(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        *,
        failure_mode: bool = False,
    ) -> dict[str, TranslationResult]:
        """Run the QoS translation for every workload in one mode."""
        items: list[tuple[DemandTrace, ApplicationQoS]] = []
        seen: set[str] = set()
        for demand in demands:
            if demand.name in seen:
                raise ConfigurationError(
                    f"duplicate workload name {demand.name!r}"
                )
            seen.add(demand.name)
            items.append(
                (demand, policy_for(policies, demand.name).mode(failure_mode))
            )
        results = self.translator.translate_items(items)
        return {
            demand.name: result
            for (demand, _), result in zip(items, results)
        }

    def plan(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        *,
        plan_failures: bool = True,
        relax_all_on_failure: bool = True,
        algorithm: str = "genetic",
        previous: "ConsolidationResult | None" = None,
    ) -> CapacityPlan:
        """Translate, place and plan for failures; assemble the plan.

        ``previous`` seeds the placement search with an earlier plan so
        re-planning favours low-migration solutions (see
        :meth:`~repro.placement.consolidation.Consolidator.consolidate`);
        it applies to the monolithic path (``sharding="off"``) only —
        the hierarchical tier re-derives placements per shard.
        """
        instrumentation = self.engine.instrumentation
        baseline = instrumentation.snapshot()
        counter_baseline = instrumentation.counters()
        if self.checkpointer is not None:
            # Stamp this run's inputs on the store: checkpoints written
            # now carry the fingerprint, and any leftover documents from
            # a run over *different* inputs read as absent instead of
            # silently resuming the wrong problem.
            self.checkpointer.fingerprint = planning_fingerprint(
                demands,
                policies,
                self.pool,
                self.commitments,
                self.search_config,
                tolerance=self.tolerance,
                attribute=self.attribute,
                kernel=self.kernel,
                algorithm=algorithm,
                plan_failures=plan_failures,
                relax_all_on_failure=relax_all_on_failure,
                previous=previous,
                sharding=self.sharding_policy,
                constraints=self.constraints,
                failure_policy=self.failure_policy,
            )
        translations = self.translate(demands, policies)
        pairs = [result.pair for result in translations.values()]
        sharded: Optional[ShardedPlacementResult] = None
        if self.sharding_policy.enabled:
            sharded = HierarchicalPlanner(
                self.pool,
                self.commitments.cos2,
                config=self.search_config,
                tolerance=self.tolerance,
                attribute=self.attribute,
                engine=self.engine,
                kernel=self.kernel,
                policy=self.sharding_policy,
                constraints=self.constraints,
            ).plan(
                pairs,
                features=demand_shape_features(demands, translations),
                checkpointer=self.checkpointer,
                algorithm=algorithm,
            )
            consolidation = sharded.consolidation
        else:
            consolidation = Consolidator(
                self.pool,
                self.commitments.cos2,
                config=self.search_config,
                tolerance=self.tolerance,
                attribute=self.attribute,
                engine=self.engine,
                kernel=self.kernel,
                constraints=self.constraints,
            ).consolidate(
                pairs,
                algorithm=algorithm,
                previous=previous,
                checkpointer=self.checkpointer,
            )
        failure_report, domain_reports, spare_curve = None, None, None
        if plan_failures:
            failure_report, domain_reports, spare_curve = self._plan_failures(
                demands,
                policies,
                consolidation,
                relax_all=relax_all_on_failure,
                algorithm=algorithm,
            )
        if self.checkpointer is not None:
            # The run completed: its checkpoints are spent. Rotating
            # them out here means only interrupted runs leave resumable
            # state behind.
            self.checkpointer.clear()
        return CapacityPlan(
            translations=translations,
            consolidation=consolidation,
            failure_report=failure_report,
            timings=instrumentation.timings_since(baseline),
            counters=instrumentation.counters_since(counter_baseline),
            sharding=None if sharded is None else sharded.summary(),
            domain_reports=domain_reports,
            spare_curve=spare_curve,
        )

    def _plan_failures(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        consolidation: ConsolidationResult,
        *,
        relax_all: bool,
        algorithm: str,
    ) -> tuple[
        FailureReport,
        Optional[dict[str, FailureReport]],
        Optional[SpareSizingCurve],
    ]:
        """The single-server sweep, then what ``failure_policy`` adds:
        domain-scoped sweeps and the spare-sizing curve."""
        planner = FailurePlanner(
            self.translator,
            config=self.search_config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            engine=self.engine,
            kernel=self.kernel,
            share_cache=self.share_sweep_cache,
            checkpointer=self.checkpointer,
        )
        report = planner.plan(
            demands,
            policies,
            self.pool,
            consolidation,
            relax_all=relax_all,
            algorithm=algorithm,
        )
        policy = self.failure_policy
        if policy is None:
            return report, None, None
        # Each scope checkpoints under its own key prefix, so a killed
        # multi-scope sweep resumes every completed case regardless of
        # which scope was in flight.
        domain_reports: dict[str, FailureReport] = {}
        for scope in policy.scopes:
            domain_reports[scope] = planner.plan_scope(
                demands,
                policies,
                self.pool,
                consolidation,
                scope=scope,
                relax_all=relax_all,
                algorithm=algorithm,
                max_cases=policy.max_cases,
                sample_seed=policy.sample_seed,
                key_prefix=f"scope:{scope}",
            )
        if policy.degraded_factor is not None:
            label = f"degraded:server@{policy.degraded_factor:g}"
            domain_reports[label] = planner.plan_scope(
                demands,
                policies,
                self.pool,
                consolidation,
                scope="server",
                degraded_factor=policy.degraded_factor,
                relax_all=relax_all,
                algorithm=algorithm,
                key_prefix=label,
            )
        spare_curve = None
        if policy.spare_curve:
            spare_curve = planner.spare_sizing_curve(
                demands,
                policies,
                self.pool,
                consolidation,
                max_spares=policy.max_spares,
                relax_all=relax_all,
                algorithm=algorithm,
                max_cases=policy.max_cases,
                sample_seed=policy.sample_seed,
            )
        return report, domain_reports or None, spare_curve
