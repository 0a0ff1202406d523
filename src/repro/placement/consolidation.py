"""The consolidation exercise (Section VI-B).

A :class:`Consolidator` takes translated workloads (per-CoS allocation
pairs) and a resource pool and searches for an assignment that satisfies
the resource access QoS commitments on every server while using as few
servers as possible. The default pipeline seeds the genetic search with
a greedy first-fit-decreasing assignment, so the result is always at
least as good as the greedy baseline; ``algorithm=`` selects a pure
baseline instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Optional, Sequence

from repro.engine import Checkpointer, ExecutionEngine
from repro.exceptions import InfeasiblePlacementError, PlacementError
from repro.placement.correlation import least_correlated_choice
from repro.placement.evaluation import (
    KERNELS,
    PlacementEvaluator,
    Steps,
    drive,
)
from repro.placement.genetic import (
    GeneticPlacementSearch,
    GeneticSearchConfig,
    GeneticSearchResult,
)
from repro.placement.greedy import (
    _greedy_place,
    best_fit_choice,
    first_fit_choice,
    placed,
)
from repro.resources.pool import ResourcePool
from repro.traces.allocation import CoSAllocationPair

Algorithm = Literal["genetic", "first_fit", "best_fit"]

#: The greedy baselines' placement policies, by algorithm name.
_GREEDY = {"first_fit": first_fit_choice, "best_fit": best_fit_choice}

#: The checkpoint key of a finished monolithic consolidation.
_KEY = "consolidation"


@dataclass(frozen=True)
class ConsolidationResult:
    """A feasible workload placement and its capacity economics.

    Attributes
    ----------
    assignment:
        Mapping of server name to the workload names placed on it; only
        servers that host at least one workload appear.
    required_by_server:
        Required capacity ``R`` per used server.
    sum_required:
        ``C_requ``: the sum of per-server required capacities (a Table I
        column).
    sum_peak_allocations:
        ``C_peak``: the sum of per-application peak allocations (the
        other Table I column) — what provisioning without sharing would
        need.
    score:
        The consolidation objective value of the assignment.
    algorithm:
        Which placement algorithm produced the result.
    search:
        Details of the genetic search when it ran.
    """

    assignment: Mapping[str, tuple[str, ...]]
    required_by_server: Mapping[str, float]
    sum_required: float
    sum_peak_allocations: float
    score: float
    algorithm: str
    search: Optional[GeneticSearchResult] = None

    @property
    def servers_used(self) -> int:
        return len(self.assignment)

    def sharing_savings(self) -> float:
        """Fractional saving of ``C_requ`` relative to ``C_peak``.

        The paper reports 37-45% for the case study: resource sharing
        lets required capacity undercut the sum of peak allocations.
        """
        if self.sum_peak_allocations == 0:
            return 0.0
        return 1.0 - self.sum_required / self.sum_peak_allocations

    def server_of(self, workload: str) -> str:
        for server, names in self.assignment.items():
            if workload in names:
                return server
        raise PlacementError(f"workload {workload!r} is not in the assignment")

    def to_payload(self) -> dict:
        """This result as a JSON-able checkpoint document.

        Search details are deliberately not persisted: the plan-level
        outputs (assignment, capacities, score) never depend on them,
        so a restored result carries ``search=None`` exactly like one
        computed by a greedy algorithm.
        """
        return {
            "assignment": {
                server: list(names)
                for server, names in self.assignment.items()
            },
            "required_by_server": dict(self.required_by_server),
            "sum_required": self.sum_required,
            "sum_peak_allocations": self.sum_peak_allocations,
            "score": self.score,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ConsolidationResult":
        """Rebuild a persisted result; raises on malformed documents.

        Callers restoring from untrusted checkpoints catch the failure
        and recompute (see :func:`_restored`,
        :func:`repro.placement.failure._case_from_payload` and the shard
        resume path) — a checkpoint is never load-bearing.
        """
        return cls(
            assignment={
                server: tuple(names)
                for server, names in payload["assignment"].items()
            },
            required_by_server={
                server: float(required)
                for server, required in payload["required_by_server"].items()
            },
            sum_required=float(payload["sum_required"]),
            sum_peak_allocations=float(payload["sum_peak_allocations"]),
            score=float(payload["score"]),
            algorithm=str(payload["algorithm"]),
        )


def _restored(
    payload: Optional[dict],
    pairs: Sequence[CoSAllocationPair],
    pool: ResourcePool,
) -> Optional[ConsolidationResult]:
    """The checkpointed result of placing ``pairs`` on ``pool``, or ``None``.

    A document that is not a whole result — a malformed one, or the
    per-generation search state older runs left under the same key — or
    one that places other workloads or names a server outside the pool
    reads as absent, and the consolidation is recomputed.
    """
    if payload is None:
        return None
    try:
        result = ConsolidationResult.from_payload(payload)
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    placed = sorted(name for names in result.assignment.values() for name in names)
    servers = {server.name for server in pool.servers}
    if placed != sorted(pair.name for pair in pairs) or not (
        result.assignment.keys() <= servers
    ):
        return None
    return result


class Consolidator:
    """Runs the workload placement service for one pool configuration.

    ``kernel`` selects the capacity-search implementation for every
    evaluation this consolidator runs (see
    :data:`repro.placement.evaluation.KERNELS`): ``"batch"`` and
    ``"fused"`` are bit-identical to the scalar reference, ``"analytic"``
    stays within the search tolerance, ``"scalar"`` is the paper's
    per-subset loop.
    """

    def __init__(
        self,
        pool: ResourcePool,
        commitment,
        *,
        config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        kernel: str = "batch",
        constraints=None,
    ):
        if len(pool) == 0:
            raise PlacementError("cannot consolidate onto an empty pool")
        if kernel not in KERNELS:
            raise PlacementError(
                f"unknown capacity-search kernel {kernel!r}; "
                f"expected one of {KERNELS}"
            )
        self.pool = pool
        self.commitment = commitment
        self.config = config or GeneticSearchConfig()
        self.tolerance = tolerance
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self.kernel = kernel
        #: Optional anti-affinity constraints
        #: (:class:`repro.placement.affinity.PlacementConstraints`):
        #: priced into the genetic fitness and repaired on the final
        #: assignment of any algorithm.
        self.constraints = constraints

    def consolidate(
        self,
        pairs: Sequence[CoSAllocationPair],
        algorithm: Algorithm = "genetic",
        *,
        previous: Optional[ConsolidationResult] = None,
        checkpointer: Optional[Checkpointer] = None,
    ) -> ConsolidationResult:
        """Place ``pairs`` onto the pool with the chosen algorithm.

        ``previous`` seeds the genetic search with an earlier plan's
        assignment: re-planning then prefers solutions close to what is
        already running, which keeps workload migrations down (each move
        disrupts an application and needs migration machinery).
        ``checkpointer`` keeps the finished result under the key
        ``consolidation``: a run killed after it resumes the result
        instead of searching again, and a document that does not read
        back as a result of these workloads on this pool is recomputed.
        """
        if checkpointer is not None:
            restored = _restored(checkpointer.load(_KEY), pairs, self.pool)
            if restored is not None:
                self.engine.instrumentation.count(
                    "placement.consolidation_resumes"
                )
                return restored
        result = self.consolidate_with_evaluator(
            self.evaluator(pairs), algorithm, previous=previous
        )
        if checkpointer is not None:
            checkpointer.save(_KEY, result.to_payload())
        return result

    def evaluator(
        self, pairs: Sequence[CoSAllocationPair]
    ) -> PlacementEvaluator:
        """A fresh evaluator of ``pairs`` under this consolidator's settings."""
        return PlacementEvaluator(
            pairs,
            self.commitment,
            tolerance=self.tolerance,
            kernel=self.kernel,
            instrumentation=self.engine.instrumentation,
        )

    def consolidate_with_evaluator(
        self,
        evaluator: PlacementEvaluator,
        algorithm: Algorithm = "genetic",
        *,
        previous: Optional[ConsolidationResult] = None,
    ) -> ConsolidationResult:
        """Run the placement algorithms against a caller-built evaluator.

        The failure sweep passes one evaluator to many consolidations so
        they share its memo.
        """
        return drive(
            self.consolidate_steps(evaluator, algorithm, previous=previous)
        )

    def consolidate_steps(
        self,
        evaluator: PlacementEvaluator,
        algorithm: Algorithm = "genetic",
        *,
        previous: Optional[ConsolidationResult] = None,
    ) -> Steps[ConsolidationResult]:
        """:meth:`consolidate_with_evaluator` as a lock-step search
        (:data:`~repro.placement.evaluation.Steps`): the hierarchical
        tier plans its shards side by side with it."""
        instrumentation = self.engine.instrumentation
        with instrumentation.stage("placement"):
            if algorithm in _GREEDY:
                (outcome,) = yield from _greedy_place(
                    evaluator, self.pool, (_GREEDY[algorithm],), self.attribute
                )
                assignment = placed(outcome)
                search = None
            elif algorithm == "genetic":
                # The three seeds in lock-step: one batch per workload.
                first_fit, best_fit, correlated = yield from _greedy_place(
                    evaluator,
                    self.pool,
                    (
                        first_fit_choice,
                        best_fit_choice,
                        least_correlated_choice(evaluator),
                    ),
                    self.attribute,
                )
                seed = placed(first_fit)
                extra_seeds = [placed(best_fit)]
                # Mixing anti-correlated workloads onto servers is a
                # strong starting point (Section VIII); a pool too tight
                # for that ordering goes without the seed, and says so.
                # Counted on every genetic consolidation, zero included,
                # so counter sets stay comparable across runs.
                skipped = 0
                if isinstance(correlated, InfeasiblePlacementError):
                    skipped = 1
                    instrumentation.event(
                        "placement.correlation_seed_skipped",
                        reason=str(correlated),
                    )
                else:
                    extra_seeds.append(correlated)
                instrumentation.count(
                    "placement.correlation_seed_skipped", skipped
                )
                carried = self._assignment_from_previous(evaluator, previous)
                if carried is not None:
                    extra_seeds.insert(0, carried)
                searcher = GeneticPlacementSearch(
                    evaluator,
                    self.pool,
                    self.config,
                    self.attribute,
                    engine=self.engine,
                    constraints=self.constraints,
                )
                search = yield from searcher.run_steps(
                    seed, extra_seeds=extra_seeds
                )
                assignment = search.best.assignment
            else:
                raise PlacementError(
                    f"unknown placement algorithm {algorithm!r}"
                )

            assignment = self._enforce_constraints(evaluator, assignment)
            result = self._build_result(evaluator, assignment, algorithm, search)
        instrumentation.count("placement.consolidations")
        return result

    def _enforce_constraints(self, evaluator, assignment):
        """Repair anti-affinity violations left in a final assignment.

        The genetic search only *prices* violations (a crowded pool can
        make a clean assignment unreachable mid-search) and the greedy
        algorithms ignore them entirely, so the final assignment gets a
        deterministic repair pass: surplus group members migrate to
        feasible servers in unoccupied domains (see
        :func:`repro.placement.affinity.repair_assignment`). The
        ``placement.affinity_*`` counters always report — zeros
        included — whenever constraints are enabled, so counter deltas
        are comparable across runs.
        """
        if self.constraints is None or not self.constraints.enabled:
            return assignment
        from repro.placement.affinity import ConstraintIndex, repair_assignment

        servers = list(self.pool.servers)
        index = ConstraintIndex(self.constraints, evaluator.names, servers)
        instrumentation = self.engine.instrumentation
        violations = index.pair_count(assignment)
        instrumentation.count("placement.affinity_violations", violations)
        moves = 0
        if violations:
            assignment, moves = repair_assignment(
                assignment,
                evaluator,
                servers,
                self.constraints,
                self.attribute,
            )
        instrumentation.count("placement.affinity_repairs", moves)
        remaining = index.pair_count(assignment) if violations else 0
        instrumentation.count("placement.affinity_unrepaired", remaining)
        if remaining:
            instrumentation.event(
                "placement.affinity_unrepaired",
                violations=violations,
                remaining=remaining,
            )
        return assignment

    def _assignment_from_previous(
        self, evaluator, previous: Optional[ConsolidationResult]
    ) -> Optional[tuple[int, ...]]:
        """Translate an earlier plan into a seed assignment, if usable.

        The previous plan is only usable when it covers exactly the
        workloads being placed and references only servers still in the
        pool; otherwise it is silently skipped (the greedy seeds remain).
        """
        if previous is None:
            return None
        server_index = {
            server.name: index
            for index, server in enumerate(self.pool.servers)
        }
        assignment = [-1] * evaluator.n_workloads
        for server_name, names in previous.assignment.items():
            index = server_index.get(server_name)
            if index is None:
                return None
            for name in names:
                try:
                    workload_index = evaluator.index_of(name)
                except PlacementError:
                    return None
                assignment[workload_index] = index
        if any(value < 0 for value in assignment):
            return None
        return tuple(assignment)

    def _build_result(
        self,
        evaluator: PlacementEvaluator,
        assignment: Sequence[int],
        algorithm: str,
        search: Optional[GeneticSearchResult],
    ) -> ConsolidationResult:
        servers = list(self.pool.servers)
        groups: dict[int, list[int]] = {}
        for workload_index, server_index in enumerate(assignment):
            groups.setdefault(int(server_index), []).append(workload_index)

        # Evaluate every used server's final group in one batched call
        # (normally all cache hits after a search; one simultaneous
        # solve otherwise, e.g. for the pure greedy algorithms' final
        # scoring).
        used = [
            (server_index, server)
            for server_index, server in enumerate(servers)
            if groups.get(server_index)
        ]
        evaluations = evaluator.evaluate_groups(
            [
                (server.capacity_of(self.attribute), groups[server_index])
                for server_index, server in used
            ]
        )
        evaluation_by_server = {
            server_index: evaluation
            for (server_index, _), evaluation in zip(used, evaluations)
        }

        named_assignment: dict[str, tuple[str, ...]] = {}
        required_by_server: dict[str, float] = {}
        score = 0.0
        for server_index, server in enumerate(servers):
            indices = groups.get(server_index)
            if not indices:
                score += 1.0
                continue
            evaluation = evaluation_by_server[server_index]
            if not evaluation.fits:
                raise PlacementError(
                    f"assignment places an infeasible workload set on "
                    f"{server.name!r}"
                )
            named_assignment[server.name] = tuple(
                evaluator.names[index] for index in sorted(indices)
            )
            required_by_server[server.name] = evaluation.required
            score += evaluation.utilization ** (2 * server.cpus)

        peaks = evaluator.peak_allocations()
        return ConsolidationResult(
            assignment=named_assignment,
            required_by_server=required_by_server,
            sum_required=float(sum(required_by_server.values())),
            sum_peak_allocations=float(peaks.sum()),
            score=score,
            algorithm=algorithm,
            search=search,
        )
