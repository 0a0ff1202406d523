"""Hierarchical placement: shard the pool, plan shards, refine across.

The monolithic consolidation exercise searches one assignment space of
``servers ** workloads`` — fine for the paper's 26 applications on 12
servers, hopeless for a production pool hosting thousands of
containers. This module implements the hierarchical tier on top of it:

1. **cluster** workloads by demand-shape similarity
   (:mod:`repro.placement.clustering`);
2. **shard** the server pool into sub-pools sized to each cluster's
   demand mass (:func:`partition_pool`);
3. **place** each shard independently through the existing
   :class:`~repro.placement.consolidation.Consolidator` — the shards
   go out in one unit per engine slot, the shards of a unit plan in
   lock-step and share each step's capacity solve
   (:func:`~repro.placement.evaluation.lock_step`), and each completed
   shard is kept through the checkpoint layer so a killed run
   resumes the finished shards instead of replanning them;
4. **refine** across shards: migrate workloads to the shard where their
   marginal placement cost is lowest, re-plan the affected shards, and
   stop as soon as total cost stops improving (the cluster → tune →
   re-partition → converge loop of the extend-dist tuner).

Determinism: every shard's genetic search runs under a seed derived
from the root search seed and the shard index, refinement evaluates
marginal costs through one driver-side batch-kernel evaluator, and all
tie-breaking is index-ordered — the same inputs always produce the
same sharded plan, on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.engine import Checkpointer, ExecutionEngine, Instrumentation
from repro.engine.dispatch import split_chunks
from repro.exceptions import PlacementError
from repro.placement.affinity import enforce_constraints
from repro.placement.clustering import (
    FEATURE_NAMES,
    ClusteringResult,
    WorkloadFeatures,
    _circular_phase,
    _normalise,
    cluster_workloads,
)
from repro.placement.consolidation import (
    ConsolidationResult,
    Consolidator,
    build_result,
    restore_result,
)
from repro.placement.evaluation import PlacementEvaluator, Steps, lock_step
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import ServerSpec
from repro.traces.allocation import CoSAllocationPair
from repro.util.rng import SeedSequenceFactory

#: ``shards`` knob values besides an explicit shard count.
SHARDING_MODES = ("auto", "off")


@dataclass(frozen=True)
class ShardingPolicy:
    """The hierarchical tier's knobs.

    ``shards`` is ``"off"`` (single-pool planning, the historical
    path), ``"auto"`` (size the shard count from the ensemble), or an
    explicit shard count. ``cluster_seed`` feeds the clustering
    tie-breaker; ``refine_rounds`` bounds the cross-shard migration
    loop (each round stops early when cost stops improving).
    """

    shards: Union[int, str] = "auto"
    cluster_seed: Optional[int] = None
    refine_rounds: int = 2
    min_servers_per_shard: int = 2
    target_workloads_per_shard: int = 24

    def __post_init__(self) -> None:
        if isinstance(self.shards, str):
            if self.shards not in SHARDING_MODES:
                raise PlacementError(
                    f"shards must be an int, 'auto', or 'off'; "
                    f"got {self.shards!r}"
                )
        elif self.shards < 1:
            raise PlacementError(f"shards must be >= 1, got {self.shards}")
        if self.refine_rounds < 0:
            raise PlacementError(
                f"refine_rounds must be >= 0, got {self.refine_rounds}"
            )
        if self.min_servers_per_shard < 1:
            raise PlacementError(
                "min_servers_per_shard must be >= 1, "
                f"got {self.min_servers_per_shard}"
            )
        if self.target_workloads_per_shard < 1:
            raise PlacementError(
                "target_workloads_per_shard must be >= 1, "
                f"got {self.target_workloads_per_shard}"
            )

    @property
    def enabled(self) -> bool:
        return self.shards != "off"

    def resolved_shards(self, n_workloads: int, n_servers: int) -> int:
        """The shard count to use for one ensemble/pool pairing.

        Every shard needs at least one server and one workload; the
        ``auto`` mode additionally aims for
        ``target_workloads_per_shard`` workloads and at least
        ``min_servers_per_shard`` servers per shard.
        """
        hard_cap = max(1, min(n_workloads, n_servers))
        if isinstance(self.shards, int):
            return min(self.shards, hard_cap)
        if self.shards == "off":
            return 1
        by_workloads = -(-n_workloads // self.target_workloads_per_shard)
        by_servers = max(1, n_servers // self.min_servers_per_shard)
        return max(1, min(by_workloads, by_servers, hard_cap))


def derive_shard_seed(seed: Optional[int], shard_index: int) -> Optional[int]:
    """A deterministic, platform-independent per-shard search seed.

    Distinct shards must not share a random stream (their searches are
    independent problems), yet the derivation must be reproducible so a
    resumed or re-run plan makes identical decisions.
    """
    if seed is None:
        return None
    rng = SeedSequenceFactory(int(seed)).generator("shard", int(shard_index))
    return int(rng.integers(0, 2**32))


def partition_pool(
    pool: ResourcePool,
    masses: Sequence[float],
    *,
    min_servers_per_shard: int = 1,
    floors: Optional[Sequence[int]] = None,
) -> list[tuple[str, ...]]:
    """Split a pool's servers into contiguous sub-pools sized by mass.

    ``masses`` holds one non-negative demand mass per shard (the sum of
    its workloads' peak allocations); each shard receives a base grant
    of ``min_servers_per_shard`` servers — raised to its entry in
    ``floors`` when given (a per-shard capacity floor, e.g. enough
    servers for the cluster's aggregate peak) — and the rest are
    apportioned to the masses by the largest-remainder method (ties to
    the lower shard index, so the split is deterministic). Floors that
    collectively exceed the pool are trimmed largest-first until they
    fit (never below ``min_servers_per_shard``): every shard keeps as
    much of its floor as the pool affords, and plan-time shard merging
    handles any still-starved shard. Servers keep pool order, so
    sub-pools are contiguous slices — stable and readable in reports.
    """
    n_shards = len(masses)
    if n_shards < 1:
        raise PlacementError("need at least one shard to partition for")
    if any(mass < 0 for mass in masses):
        raise PlacementError(f"shard masses must be >= 0, got {list(masses)}")
    n_servers = len(pool)
    if n_shards * min_servers_per_shard > n_servers:
        raise PlacementError(
            f"cannot give {n_shards} shards {min_servers_per_shard} "
            f"server(s) each from a {n_servers}-server pool"
        )
    base = [min_servers_per_shard] * n_shards
    if floors is not None:
        if len(floors) != n_shards:
            raise PlacementError(
                f"got {len(floors)} capacity floors for {n_shards} shards"
            )
        raised = [
            max(min_servers_per_shard, int(floor)) for floor in floors
        ]
        while sum(raised) > n_servers:
            # Trim the tallest floor (ties to the lower index) — keeps
            # as much of every floor as the pool affords.
            tallest = max(
                range(n_shards), key=lambda i: (raised[i], -i)
            )
            if raised[tallest] <= min_servers_per_shard:
                raised = [min_servers_per_shard] * n_shards
                break
            raised[tallest] -= 1
        base = raised
    spare = n_servers - sum(base)
    total = float(sum(masses))
    if total <= 0.0:
        shares = np.full(n_shards, spare / n_shards)
    else:
        shares = np.asarray(masses, dtype=float) / total * spare
    counts = np.floor(shares).astype(int)
    remainders = shares - counts
    # Largest remainder, ties broken by shard index.
    order = sorted(range(n_shards), key=lambda i: (-remainders[i], i))
    for index in order[: spare - int(counts.sum())]:
        counts[index] += 1
    names = pool.names()
    slices: list[tuple[str, ...]] = []
    start = 0
    for index in range(n_shards):
        size = base[index] + int(counts[index])
        slices.append(tuple(names[start : start + size]))
        start += size
    return slices


@dataclass
class ShardedPlacementResult:
    """Outcome of one hierarchical placement run.

    ``consolidation`` is the merged, pool-wide result (the same type
    the monolithic path produces, so everything downstream — failure
    planning, plan hashing, reports — is oblivious to sharding);
    the remaining fields are the tier's diagnostics.
    """

    consolidation: ConsolidationResult
    clustering: ClusteringResult
    shard_workloads: tuple[tuple[str, ...], ...]
    shard_servers: tuple[tuple[str, ...], ...]
    shard_seconds: tuple[float, ...]
    refine_rounds_run: int
    migrations: int
    resumed_shards: int
    #: Workloads migrated by the post-merge anti-affinity repair pass
    #: (0 when no constraints were given or the merged plan was clean).
    affinity_repairs: int = 0

    @property
    def shard_count(self) -> int:
        return len(self.shard_workloads)

    def summary(self) -> dict[str, object]:
        return {
            "shards": self.shard_count,
            "shard_sizes": [len(names) for names in self.shard_workloads],
            "shard_servers": [len(names) for names in self.shard_servers],
            "shard_seconds": [round(s, 4) for s in self.shard_seconds],
            "clustering_method": self.clustering.method,
            "refine_rounds_run": self.refine_rounds_run,
            "migrations": self.migrations,
            "resumed_shards": self.resumed_shards,
            "affinity_repairs": self.affinity_repairs,
        }


@dataclass(frozen=True)
class _ShardPlanPayload:
    """Picklable state broadcast once per shard-planning session."""

    pairs: tuple[CoSAllocationPair, ...]
    servers: tuple[ServerSpec, ...]
    commitment: object
    config: Optional[GeneticSearchConfig]
    tolerance: float
    attribute: str
    algorithm: str
    kernel: str
    #: Anti-affinity constraints, threaded into each shard's search so
    #: per-shard plans already avoid shared failure domains; the merged
    #: plan gets a final cross-shard repair pass on top.
    constraints: object = None


@dataclass(frozen=True)
class _ShardItem:
    """One shard's planning work unit."""

    index: int
    workload_rows: tuple[int, ...]
    server_rows: tuple[int, ...]
    seed: Optional[int]
    #: Optional warm-start assignment (server name -> workload names):
    #: refinement replans seed the search with the post-move placement
    #: so the result can only improve on it.
    previous: Optional[tuple[tuple[str, tuple[str, ...]], ...]] = None


@dataclass(frozen=True)
class _ShardOutcome:
    """What one shard's planning returned (or why it could not)."""

    index: int
    result: Optional[ConsolidationResult]
    error: Optional[str]
    #: Time spent advancing this shard's search plus its row share of
    #: each solve it took part in (see :func:`lock_step`).
    seconds: float
    #: This shard's :data:`_SHARD_COUNTERS` totals. A solve merged across
    #: the shards of one unit counts once, with the first of them.
    counters: Mapping[str, float]


#: Counters a shard's planning reports back to the planner (by prefix).
_SHARD_COUNTERS = (
    "placement.cache_",
    "kernel.",
    "placement.ga_generations",
    "placement.consolidations",
)


def _shard_plan_worker(
    payload: _ShardPlanPayload, items: tuple[_ShardItem, ...]
) -> tuple[_ShardOutcome, ...]:
    """Executor work unit: consolidate shards end to end, in lock-step.

    Every shard's search advances to its next capacity question, and one
    solve answers the questions of all of them (:func:`lock_step`).
    Each shard keeps its own evaluator, its search seed and the order of
    its questions, so its outcome is the one it has planned alone: a
    pure function of the payload and its item, identical across serial
    and parallel backends and across any grouping of shards into units.
    An infeasible shard is an *outcome*, not an exception — the driver
    decides whether to merge it away or fail the plan — and the other
    shards carry on.
    """
    sinks = [Instrumentation() for _ in items]
    results, seconds = lock_step(
        [_plan_shard(payload, item, sink) for item, sink in zip(items, sinks)]
    )
    return tuple(
        _ShardOutcome(
            index=item.index,
            result=result,
            error=error,
            seconds=elapsed,
            counters={
                name: value
                for name, value in sink.counters().items()
                if name.startswith(_SHARD_COUNTERS)
            },
        )
        for item, (result, error), elapsed, sink in zip(
            items, results, seconds, sinks
        )
    )


def _plan_shard(
    payload: _ShardPlanPayload, item: _ShardItem, sink: Instrumentation
) -> Steps[tuple[Optional[ConsolidationResult], Optional[str]]]:
    """One shard's consolidation as a lock-step search, counting into
    ``sink``; returns its result, or ``None`` and why."""
    pool = ResourcePool(payload.servers[row] for row in item.server_rows)
    pairs = [payload.pairs[row] for row in item.workload_rows]
    config = payload.config
    if config is not None and config.seed != item.seed:
        config = replace(config, seed=item.seed)
    previous = None
    if item.previous is not None:
        previous = ConsolidationResult(
            assignment={server: names for server, names in item.previous},
            required_by_server={},
            sum_required=0.0,
            sum_peak_allocations=0.0,
            score=0.0,
            algorithm="seed",
        )
    consolidator = Consolidator(
        pool,
        payload.commitment,
        config=config,
        tolerance=payload.tolerance,
        attribute=payload.attribute,
        engine=ExecutionEngine.serial(sink),
        kernel=payload.kernel,
        constraints=payload.constraints,
    )
    try:
        result = yield from consolidator.consolidate_steps(
            consolidator.evaluator(pairs),
            algorithm=payload.algorithm,
            previous=previous,
        )
    except PlacementError as error:
        return None, str(error)
    return result, None


class HierarchicalPlanner:
    """Runs the cluster → shard → place → refine pipeline for one pool.

    The planner is *staged*: :meth:`cluster`, :meth:`partition`,
    :meth:`place`, and :meth:`refine` are called in order (a caller
    that times each stage calls them one by one); :meth:`plan` runs all
    four and is what the :class:`~repro.core.framework.ROpus` facade
    calls.
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
        policy: ShardingPolicy | None = None,
        constraints=None,
    ):
        if len(pool) == 0:
            raise PlacementError("cannot shard an empty pool")
        self.pool = pool
        self.commitment = commitment
        self.config = config if config is not None else GeneticSearchConfig()
        self.tolerance = tolerance
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self.kernel = kernel
        self.policy = policy or ShardingPolicy()
        self.constraints = constraints
        self._pairs: list[CoSAllocationPair] = []
        self._names: list[str] = []
        self._clustering: ClusteringResult | None = None
        self._membership: list[list[int]] = []
        self._server_rows: list[tuple[int, ...]] = []
        self._results: list[ConsolidationResult] = []
        self._shard_seconds: list[float] = []
        self._resumed = 0
        self._evaluator: PlacementEvaluator | None = None
        #: Where each migrated workload landed (row -> server name), so
        #: the replan warm start places it where its marginal cost was
        #: actually evaluated.
        self._move_targets: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Stage 1: cluster
    # ------------------------------------------------------------------
    def cluster(
        self,
        pairs: Sequence[CoSAllocationPair],
        features: WorkloadFeatures | None = None,
    ) -> ClusteringResult:
        """Group the translated workloads by demand-shape similarity.

        ``features`` may be precomputed (the framework extracts them
        from the raw demands plus translations); otherwise they are
        derived from the allocation pairs directly.
        """
        if not pairs:
            raise PlacementError("need at least one workload to shard")
        self._pairs = list(pairs)
        self._names = [pair.name for pair in pairs]
        if features is None:
            features = pair_shape_features(pairs)
        n_shards = self.policy.resolved_shards(len(pairs), len(self.pool))
        with self.engine.instrumentation.stage("clustering"):
            self._clustering = cluster_workloads(
                features,
                n_shards,
                seed=self.policy.cluster_seed,
            )
        self.engine.instrumentation.count("placement.clusters", n_shards)
        return self._clustering

    # ------------------------------------------------------------------
    # Stage 2: shard the pool
    # ------------------------------------------------------------------
    def partition(self) -> list[tuple[str, ...]]:
        """Size sub-pools to cluster demand mass and slice the pool.

        Mass is the cluster's aggregate peak (the peak of its summed
        allocation series): what the cluster needs with perfect
        statistical multiplexing, which tracks its share of required
        capacity far better than the sum of individual peaks once
        clustering has grouped correlated workloads together.
        """
        clustering = self._require(self._clustering, "cluster")
        with self.engine.instrumentation.stage("sharding"):
            self._membership = self._rebalance(
                [list(rows) for rows in clustering.members()]
            )
            # Mass is the cluster's *aggregate* peak — the peak of its
            # summed allocation series. Unlike the sum of individual
            # peaks it reflects multiplexing: a shard of correlated
            # workloads (which clustering by shape produces on purpose)
            # peaks together and earns proportionally more servers than
            # an anti-correlated one of equal nominal size.
            masses = [
                self._aggregate_peak(rows) for rows in self._membership
            ]
            # Capacity floor: a shard must at least hold its cluster's
            # aggregate (perfectly-multiplexed) peak — proportional
            # mass shares can starve a shard whose workloads share
            # poorly, and plan-time merging is costlier than sizing
            # honestly up front.
            mean_capacity = float(
                np.mean(
                    [
                        server.capacity_of(self.attribute)
                        for server in self.pool.servers
                    ]
                )
            )
            # One extra server of fragmentation slack per shard: the
            # aggregate peak assumes perfect bin-packing, which greedy
            # construction never achieves on a near-full sub-pool.
            floors = [
                1 + int(np.ceil(self._aggregate_peak(rows) / mean_capacity))
                if rows
                else 0
                for rows in self._membership
            ]
            min_servers = min(
                self.policy.min_servers_per_shard,
                len(self.pool) // max(1, len(self._membership)),
            )
            slices = partition_pool(
                self.pool,
                masses,
                min_servers_per_shard=max(1, min_servers),
                floors=floors,
            )
        name_to_row = {
            server.name: row for row, server in enumerate(self.pool.servers)
        }
        self._server_rows = [
            tuple(name_to_row[name] for name in shard) for shard in slices
        ]
        if len(self._server_rows) != len(self._membership):
            raise PlacementError(
                "internal error: sub-pool count diverged from shard count"
            )
        self.engine.instrumentation.count(
            "placement.shards", len(self._server_rows)
        )
        return slices

    # ------------------------------------------------------------------
    # Stage 3: place shards in parallel
    # ------------------------------------------------------------------
    def place(
        self,
        checkpointer: Checkpointer | None = None,
        algorithm: str = "genetic",
    ) -> list[ConsolidationResult]:
        """Plan every shard independently through the engine.

        The pending shards go out in one lock-step unit per engine slot
        (:func:`_shard_plan_worker`). Completed shards are kept
        under ``shard/<index>`` as their unit returns, so a killed run
        resumes the finished shards. A kept result restores only if it
        places exactly the shard's workloads on the shard's servers
        (:func:`~repro.placement.consolidation.restore_result`), so a
        resume whose clustering came out differently recomputes instead
        of trusting a shard plan for the wrong workloads.
        """
        self._require(self._server_rows or None, "partition")
        self._algorithm = algorithm
        instrumentation = self.engine.instrumentation
        n_shards = len(self._membership)
        restored: dict[int, tuple[ConsolidationResult, float]] = {}
        pending: list[_ShardItem] = []
        single = n_shards == 1
        with instrumentation.stage("placement"):
            for index in range(n_shards):
                loaded = self._load_shard(checkpointer, index)
                if loaded is not None:
                    restored[index] = loaded
                    continue
                pending.append(self._shard_item(index, single))
            if restored:
                self._resumed = len(restored)
                instrumentation.count(
                    "placement.shard_resumes", len(restored)
                )
            outcomes = self._plan_units(pending, checkpointer)
            self._results = [None] * n_shards  # type: ignore[list-item]
            self._shard_seconds = [0.0] * n_shards
            for index, (result, seconds) in restored.items():
                self._results[index] = result
                self._shard_seconds[index] = seconds
            infeasible: list[_ShardOutcome] = []
            for outcome in outcomes:
                self._shard_seconds[outcome.index] = outcome.seconds
                if outcome.result is None:
                    infeasible.append(outcome)
                else:
                    self._results[outcome.index] = outcome.result
            if infeasible:
                self._absorb_infeasible(infeasible)
        return list(self._results)

    # ------------------------------------------------------------------
    # Stage 4: cross-shard refinement
    # ------------------------------------------------------------------
    def refine(self) -> ShardedPlacementResult:
        """Iterative cross-shard best-fit migration until cost stalls.

        Each round evaluates, for every workload, the marginal cost of
        moving it to its best-fit server in every other shard (batched
        through the global evaluator's kernel); applies the best
        non-conflicting positive-gain moves; re-plans the affected
        shards (seeded with the post-move placement, so replanning can
        only improve it); and keeps the round only if total required
        capacity actually dropped. Stops on the first non-improving
        round or after ``refine_rounds`` rounds.
        """
        self._require(self._results or None, "place")
        instrumentation = self.engine.instrumentation
        rounds_run = 0
        migrations = 0
        with instrumentation.stage("refinement"):
            for _ in range(self.policy.refine_rounds):
                if len(self._membership) < 2:
                    break
                self._move_targets.clear()
                previous_cost = self._total_cost(self._results)
                moves = self._candidate_moves()
                if not moves:
                    break
                saved_membership = [list(rows) for rows in self._membership]
                saved_results = list(self._results)
                applied = self._apply_moves(moves)
                if not applied:
                    break
                if not self._replan_affected(
                    {shard for _, source, target in applied
                     for shard in (source, target)}
                ):
                    # An affected shard came back infeasible: the move
                    # set was too aggressive — revert and stop.
                    self._membership = saved_membership
                    self._results = saved_results
                    break
                rounds_run += 1
                new_cost = self._total_cost(self._results)
                if new_cost < previous_cost - 1e-9:
                    migrations += len(applied)
                    instrumentation.count(
                        "placement.shard_migrations", len(applied)
                    )
                else:
                    self._membership = saved_membership
                    self._results = saved_results
                    break
            instrumentation.count("placement.refine_rounds", rounds_run)
        return self._build_result(rounds_run, migrations)

    def plan(
        self,
        pairs: Sequence[CoSAllocationPair],
        *,
        features: WorkloadFeatures | None = None,
        checkpointer: Checkpointer | None = None,
        algorithm: str = "genetic",
    ) -> ShardedPlacementResult:
        """All four stages in order."""
        self.cluster(pairs, features)
        self.partition()
        self.place(checkpointer, algorithm)
        return self.refine()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, value, stage: str):
        if value is None:
            raise PlacementError(
                f"hierarchical pipeline stage {stage!r} has not run yet"
            )
        return value

    def _rebalance(self, membership: list[list[int]]) -> list[list[int]]:
        """Split oversized clusters into target-sized shard chunks.

        Shape clustering groups by similarity, not by size: a pool
        where most workloads look alike yields one mega-cluster whose
        genetic search is nearly as expensive as the monolithic one,
        defeating the hierarchy. Any cluster more than twice the
        policy's per-shard workload target is therefore chunked into
        roughly target-sized shards (members keep cluster order, so
        the split is deterministic), bounded by one shard per server.
        Cross-shard refinement later undoes any split the packing
        disagrees with — drained shards merge away.
        """
        target = self.policy.target_workloads_per_shard
        spare = len(self.pool) - len(membership)
        balanced: list[list[int]] = []
        for rows in membership:
            n_chunks = 1
            if len(rows) > 2 * target and spare > 0:
                n_chunks = min(
                    int(np.ceil(len(rows) / target)), 1 + spare
                )
                spare -= n_chunks - 1
            if n_chunks == 1:
                balanced.append(rows)
                continue
            balanced.extend(
                list(chunk) for chunk in split_chunks(rows, n_chunks)
            )
            self.engine.instrumentation.count(
                "placement.shard_splits", n_chunks - 1
            )
        return balanced

    def _aggregate_peak(self, rows: Sequence[int]) -> float:
        """Peak of the cluster's summed total-allocation series.

        The capacity the cluster would need with *perfect* statistical
        multiplexing — a lower bound on any feasible sub-pool.
        """
        if not rows:
            return 0.0
        total = None
        for row in rows:
            pair = self._pairs[row]
            series = pair.cos1.values + pair.cos2.values
            total = series if total is None else total + series
        return float(total.max())

    def _global_evaluator(self) -> PlacementEvaluator:
        if self._evaluator is None:
            self._evaluator = PlacementEvaluator(
                self._pairs,
                self.commitment,
                tolerance=self.tolerance,
                kernel=self.kernel,
                instrumentation=self.engine.instrumentation,
            )
        return self._evaluator

    def _payload(self, algorithm: str) -> _ShardPlanPayload:
        return _ShardPlanPayload(
            pairs=tuple(self._pairs),
            servers=tuple(self.pool.servers),
            commitment=self.commitment,
            config=self.config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            algorithm=algorithm,
            kernel=self.kernel,
            constraints=self.constraints,
        )

    def _shard_item(
        self,
        index: int,
        single: bool,
        previous: Optional[tuple[tuple[str, tuple[str, ...]], ...]] = None,
    ) -> _ShardItem:
        seed = self.config.seed
        return _ShardItem(
            index=index,
            workload_rows=tuple(self._membership[index]),
            server_rows=self._server_rows[index],
            # A lone shard is the whole problem: keep the root seed so
            # the degenerate single-shard plan matches the monolithic
            # search's trajectory.
            seed=seed if single else derive_shard_seed(seed, index),
            previous=previous,
        )

    def _plan_units(
        self,
        items: Sequence[_ShardItem],
        checkpointer: Checkpointer | None = None,
    ) -> list[_ShardOutcome]:
        """Plan ``items`` in one lock-step unit per engine slot.

        Each unit's outcomes are counted into the planner's
        instrumentation and checkpointed as the unit returns.
        """
        if not items:
            return []
        outcomes: list[_ShardOutcome] = []
        with self.engine.session(self._payload(self._algorithm)) as session:
            units = split_chunks(items, session.parallelism)
            for unit in session.map(_shard_plan_worker, units):
                for outcome in unit:
                    self._count_shard(outcome)
                    self._save_shard(checkpointer, outcome)
                outcomes.extend(unit)
        return outcomes

    def _count_shard(self, outcome: _ShardOutcome) -> None:
        for name, value in outcome.counters.items():
            self.engine.instrumentation.count(name, value)

    def _load_shard(
        self, checkpointer: Checkpointer | None, index: int
    ) -> tuple[ConsolidationResult, float] | None:
        payload = None if checkpointer is None else checkpointer.load(
            f"shard/{index}"
        )
        if payload is None:
            return None
        result = restore_result(
            payload.get("result"),
            [self._names[row] for row in self._membership[index]],
            [self.pool.servers[row].name for row in self._server_rows[index]],
        )
        try:
            return None if result is None else (result, float(payload["seconds"]))
        except (KeyError, TypeError, ValueError):
            return None

    def _save_shard(
        self, checkpointer: Checkpointer | None, outcome: _ShardOutcome
    ) -> None:
        if checkpointer is not None and outcome.result is not None:
            checkpointer.save(
                f"shard/{outcome.index}",
                {"result": outcome.result.to_payload(), "seconds": outcome.seconds},
            )

    def _absorb_infeasible(self, infeasible: list[_ShardOutcome]) -> None:
        """Merge shards the sub-pool could not absorb into roomier ones.

        Proportional sizing occasionally starves a shard (a cluster of
        perfectly anti-correlated spikers needs less capacity than its
        peak mass suggests, its neighbour more). Rather than failing
        the plan, each infeasible shard is merged — workloads *and*
        servers — into the feasible shard with the most spare capacity
        and the merged shard replanned; if the merge is still too tight
        it keeps absorbing the next-roomiest shard (in the limit the
        hierarchy collapses back to the monolithic problem, which is
        exactly as feasible as unsharded planning). Only with no donor
        left is the problem declared infeasible.
        """
        instrumentation = self.engine.instrumentation
        pending = [outcome.index for outcome in infeasible]
        error = infeasible[-1].error
        while pending:
            donors = [
                (donor, result)
                for donor, result in enumerate(self._results)
                if result is not None and donor not in pending
            ]
            if not donors:
                raise PlacementError(
                    f"shard(s) {pending} are infeasible and no feasible "
                    f"shard remains to absorb them: {error}"
                )
            headroom = {
                donor: sum(
                    self.pool.servers[row].capacity_of(self.attribute)
                    for row in self._server_rows[donor]
                )
                - result.sum_required
                for donor, result in donors
            }
            target = max(
                headroom, key=lambda donor: (headroom[donor], -donor)
            )
            # Pour every pending shard into the donor at once — one
            # replan covers the whole batch instead of one per shard.
            for index in pending:
                self._membership[target].extend(self._membership[index])
                self._membership[index] = []
                self._server_rows[target] = tuple(
                    sorted(
                        self._server_rows[target] + self._server_rows[index]
                    )
                )
                self._server_rows[index] = ()
                self._results[index] = None  # type: ignore[call-overload]
                instrumentation.count("placement.shard_merges")
            (merged,) = _shard_plan_worker(
                self._payload(self._algorithm),
                (self._shard_item(target, single=False),),
            )
            self._count_shard(merged)
            self._shard_seconds[target] += merged.seconds
            if merged.result is not None:
                self._results[target] = merged.result
                break
            # The merged shard is infeasible too: mark it pending and
            # absorb the next-roomiest feasible shard into it.
            self._results[target] = None  # type: ignore[call-overload]
            pending = [target]
            error = merged.error
        # Drop emptied shards so refinement iterates real ones only.
        keep = [
            index
            for index in range(len(self._membership))
            if self._membership[index]
        ]
        self._membership = [self._membership[index] for index in keep]
        self._server_rows = [self._server_rows[index] for index in keep]
        self._results = [self._results[index] for index in keep]
        self._shard_seconds = [self._shard_seconds[index] for index in keep]

    def _total_cost(self, results: Sequence[ConsolidationResult]) -> float:
        return float(sum(result.sum_required for result in results))

    def _candidate_moves(self) -> list[tuple[float, int, int, int, str]]:
        """Rank every workload's best cross-shard migration.

        Returns ``(net_gain, row, source_shard, target_shard,
        target_server)`` tuples for every workload whose cheapest
        insertion elsewhere undercuts its removal gain at home. All
        required capacities flow through the global evaluator, so the
        whole round's marginal costs are a handful of batched solves.
        """
        evaluator = self._global_evaluator()
        servers = {server.name: server for server in self.pool.servers}
        groups: dict[str, list[int]] = {}
        shard_of_row: dict[int, int] = {}
        for shard, result in enumerate(self._results):
            for server_name, names in result.assignment.items():
                groups[server_name] = [
                    evaluator.index_of(name) for name in names
                ]
            for row in self._membership[shard]:
                shard_of_row[row] = shard
        required = {
            server_name: result.required_by_server[server_name]
            for result in self._results
            for server_name in result.assignment
        }
        # Per shard: a few insertion candidates. The loaded servers with
        # the most headroom come first — inserting next to existing work
        # is where statistical multiplexing pays — plus the emptiest
        # server overall as the always-feasible fallback.
        insertion_targets: dict[int, list[str]] = {}
        for shard in range(len(self._membership)):
            loaded: list[tuple[float, str]] = []
            emptiest: Optional[tuple[float, str]] = None
            for row in self._server_rows[shard]:
                server = self.pool.servers[row]
                used = required.get(server.name, 0.0)
                headroom = server.capacity_of(self.attribute) - used
                if groups.get(server.name):
                    loaded.append((headroom, server.name))
                if emptiest is None or (headroom, server.name) > emptiest:
                    emptiest = (headroom, server.name)
            candidates = [name for _, name in sorted(loaded, reverse=True)[:3]]
            if emptiest is not None and emptiest[1] not in candidates:
                candidates.append(emptiest[1])
            if candidates:
                insertion_targets[shard] = candidates
        # Batch every removal and insertion evaluation in one pass.
        items: list[tuple[float, list[int]]] = []
        # (kind, row, shard, server) per item.
        labels: list[tuple[str, int, int, str]] = []
        for row, source in sorted(shard_of_row.items()):
            home_server = self._results[source].server_of(self._names[row])
            remaining = [r for r in groups[home_server] if r != row]
            items.append(
                (servers[home_server].capacity_of(self.attribute), remaining)
            )
            labels.append(("removal", row, source, home_server))
            for target in range(len(self._membership)):
                if target == source or target not in insertion_targets:
                    continue
                for target_server in insertion_targets[target]:
                    items.append(
                        (
                            servers[target_server].capacity_of(self.attribute),
                            groups.get(target_server, []) + [row],
                        )
                    )
                    labels.append(("insert", row, target, target_server))
        evaluations = evaluator.evaluate_groups(items)
        removal_gain: dict[int, float] = {}
        best_insert: dict[int, tuple[float, int, str]] = {}
        for (kind, row, shard, server_name), evaluation in zip(
            labels, evaluations
        ):
            if kind == "removal":
                gain = required[server_name] - (
                    evaluation.required if evaluation.fits else 0.0
                )
                removal_gain[row] = gain
            else:
                if not evaluation.fits:
                    continue
                delta = evaluation.required - required.get(server_name, 0.0)
                best = best_insert.get(row)
                if best is None or delta < best[0]:
                    best_insert[row] = (delta, shard, server_name)
        moves = []
        for row, (delta, target, target_server) in sorted(
            best_insert.items()
        ):
            gain = removal_gain.get(row, 0.0) - delta
            if gain > 1e-9:
                moves.append(
                    (gain, row, shard_of_row[row], target, target_server)
                )
        moves.sort(key=lambda move: (-move[0], move[1]))
        return moves

    def _apply_moves(
        self, moves: list[tuple[float, int, int, int, str]]
    ) -> list[tuple[int, int, int]]:
        """Apply the best non-conflicting moves; returns what moved.

        One migration per source/target server per round: after a move
        the marginal costs computed against that server are stale, so
        further moves touching it wait for the next round's re-plan.
        A shard *may* drain to zero workloads — that is the hierarchy's
        merge move (a mis-clustered singleton migrates to wherever its
        marginal cost is lowest and its old sub-pool goes idle).
        """
        cap = max(1, len(self._names) // 8)
        touched: set[str] = set()
        applied: list[tuple[int, int, int]] = []
        for gain, row, source, target, target_server in moves:
            if len(applied) >= cap:
                break
            home_server = self._results[source].server_of(self._names[row])
            if home_server in touched or target_server in touched:
                continue
            touched.add(home_server)
            touched.add(target_server)
            self._membership[source].remove(row)
            self._membership[target].append(row)
            self._move_targets[row] = target_server
            applied.append((row, source, target))
        return applied

    def _replan_affected(self, shards: set[int]) -> bool:
        """Re-plan the shards a move touched; ``False`` on infeasibility.

        Replans run through the engine like the initial placement,
        each seeded with its post-move placement so the search starts
        from (and can only improve on) the migrated assignment.
        """
        items = []
        for index in sorted(shards):
            if not self._membership[index]:
                # Refinement drained the shard: its sub-pool is idle and
                # contributes nothing to the merged plan.
                self._results[index] = ConsolidationResult(
                    assignment={},
                    required_by_server={},
                    sum_required=0.0,
                    sum_peak_allocations=0.0,
                    score=0.0,
                    algorithm="empty",
                )
                continue
            previous = self._post_move_assignment(index)
            items.append(
                self._shard_item(index, single=False, previous=previous)
            )
        for outcome in self._plan_units(items):
            if outcome.result is None:
                return False
            self._results[outcome.index] = outcome.result
            self._shard_seconds[outcome.index] += outcome.seconds
        return True

    def _post_move_assignment(
        self, index: int
    ) -> Optional[tuple[tuple[str, tuple[str, ...]], ...]]:
        """The shard's previous assignment with migrations applied.

        Workloads that left are dropped; each arrival lands on the
        server its migration targeted (where the move's marginal cost
        was evaluated), falling back to the shard's most-headroom
        server. ``None`` when the previous result cannot express the
        new membership (first planning pass).
        """
        result = self._results[index]
        if result is None:
            return None
        member_names = {self._names[row] for row in self._membership[index]}
        assignment: dict[str, list[str]] = {
            server: [name for name in names if name in member_names]
            for server, names in result.assignment.items()
        }
        placed = {name for names in assignment.values() for name in names}
        arrivals = sorted(member_names - placed)
        if arrivals:
            shard_servers = {
                self.pool.servers[row].name
                for row in self._server_rows[index]
            }
            headroom = {
                self.pool.servers[row].name: (
                    self.pool.servers[row].capacity_of(self.attribute)
                    - result.required_by_server.get(
                        self.pool.servers[row].name, 0.0
                    )
                )
                for row in self._server_rows[index]
            }
            fallback = max(headroom, key=lambda name: (headroom[name], name))
            row_of_name = {
                self._names[row]: row for row in self._membership[index]
            }
            for name in arrivals:
                target = self._move_targets.get(row_of_name[name], fallback)
                if target not in shard_servers:
                    target = fallback
                assignment.setdefault(target, []).append(name)
        return tuple(
            (server, tuple(names))
            for server, names in sorted(assignment.items())
            if names
        )

    def _build_result(
        self, rounds_run: int, migrations: int
    ) -> ShardedPlacementResult:
        merged_assignment: dict[str, tuple[str, ...]] = {}
        merged_required: dict[str, float] = {}
        score = 0.0
        for result in self._results:
            for server, names in result.assignment.items():
                if server in merged_assignment:
                    raise PlacementError(
                        f"server {server!r} appears in two shards"
                    )
                merged_assignment[server] = names
            merged_required.update(result.required_by_server)
            score += result.score
        consolidation = ConsolidationResult(
            assignment=merged_assignment,
            required_by_server=merged_required,
            sum_required=float(sum(merged_required.values())),
            sum_peak_allocations=float(
                self._global_evaluator().peak_allocations().sum()
            ),
            score=score,
            algorithm=f"sharded-{self._algorithm}",
        )
        consolidation, affinity_repairs = self._repair_affinity(consolidation)
        clustering = self._require(self._clustering, "cluster")
        return ShardedPlacementResult(
            consolidation=consolidation,
            clustering=clustering,
            shard_workloads=tuple(
                tuple(sorted(self._names[row] for row in rows))
                for rows in self._membership
            ),
            shard_servers=tuple(
                tuple(self.pool.servers[row].name for row in rows)
                for rows in self._server_rows
            ),
            shard_seconds=tuple(self._shard_seconds),
            refine_rounds_run=rounds_run,
            migrations=migrations,
            resumed_shards=self._resumed,
            affinity_repairs=affinity_repairs,
        )

    def _repair_affinity(
        self, consolidation: ConsolidationResult
    ) -> tuple[ConsolidationResult, int]:
        """Cross-shard anti-affinity repair on the merged plan.

        Each shard plans inside its own server slice, so two members of
        one anti-affinity group placed in *different* shards can still
        land in the *same* rack (shard slices and racks are both
        contiguous runs of the pool). The merged assignment therefore
        gets the monolithic consolidator's anti-affinity pass
        (:func:`~repro.placement.affinity.enforce_constraints`) through
        the pool-wide evaluator, and a repaired plan is rebuilt with
        freshly evaluated per-server capacities.
        """
        if self.constraints is None or not self.constraints.enabled:
            return consolidation, 0
        evaluator = self._global_evaluator()
        servers = self.pool.servers
        server_row = {server.name: row for row, server in enumerate(servers)}
        assignment = [-1] * evaluator.n_workloads
        for server_name, names in consolidation.assignment.items():
            for name in names:
                assignment[evaluator.index_of(name)] = server_row[server_name]
        repaired, moves = enforce_constraints(
            assignment,
            evaluator,
            servers,
            self.constraints,
            self.attribute,
            self.engine.instrumentation,
        )
        if moves == 0:
            return consolidation, 0
        rebuilt = build_result(
            evaluator, self.pool, self.attribute, repaired, consolidation.algorithm
        )
        return rebuilt, moves


def pair_shape_features(
    pairs: Sequence[CoSAllocationPair],
) -> WorkloadFeatures:
    """Demand-shape features straight from translated allocation pairs.

    The post-translation analogue of
    :func:`repro.placement.clustering.demand_shape_features`: the shape
    features come from the total (CoS1+CoS2) allocation series and the
    CoS1/CoS2 split is exact rather than estimated.
    """
    if not pairs:
        raise PlacementError("need at least one workload to featurise")
    rows = np.empty((len(pairs), len(FEATURE_NAMES)), dtype=float)
    for row, pair in enumerate(pairs):
        cos1 = pair.cos1.values
        cos2 = pair.cos2.values
        total = cos1 + cos2
        calendar = pair.cos1.calendar
        by_slot = calendar.slot_of_day_view(total).mean(axis=(0, 1))
        phase_sin, phase_cos = _circular_phase(by_slot)
        peak = float(total.max())
        mean = float(total.mean())
        if peak <= 0.0:
            raise PlacementError(
                f"workload {pair.name!r} has a non-positive peak allocation"
            )
        p97, p999 = np.percentile(total, [97.0, 99.9])
        mass = float(total.sum())
        rows[row] = (
            phase_sin,
            phase_cos,
            float(p97) / peak,
            float(p999) / peak,
            peak / mean if mean > 0.0 else 1.0,
            float(cos1.sum()) / mass if mass > 0.0 else 0.5,
        )
    return WorkloadFeatures(
        names=tuple(pair.name for pair in pairs),
        matrix=_normalise(rows),
        raw=rows,
    )


__all__ = [
    "HierarchicalPlanner",
    "SHARDING_MODES",
    "ShardedPlacementResult",
    "ShardingPolicy",
    "derive_shard_seed",
    "pair_shape_features",
    "partition_pool",
]
