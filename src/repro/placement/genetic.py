"""Genetic optimizing search over workload assignments (Section VI-B).

The search evolves assignments (one server index per workload) toward a
small number of hot servers:

* **fitness** is the consolidation score — ``+1`` per empty server,
  ``f(U) = U^(2Z)`` per feasible used server, ``-N`` per over-booked
  server;
* **mutation** picks a used server with probability weighted by
  ``1 - f(U)`` — poorly utilised servers are the likeliest to have their
  workloads migrated away, so each mutation step tends to reduce the
  number of servers in use by one;
* **cross-over** mates two parents by taking each workload's server from
  one parent or the other at random.

The search tracks the best *feasible* assignment ever seen and returns
it; when seeded with a feasible initial assignment (the consolidator uses
a greedy first fit) the result can only improve on the seed.

Each generation's children are drawn first and then evaluated as one
batch: a single :meth:`PlacementEvaluator.ask` request, so the
generation's cache misses meet the kernel together. The search is a
lock-step search (:data:`~repro.placement.evaluation.Steps`,
:meth:`GeneticPlacementSearch.run_steps`), so searches planned side by
side — the shards of the hierarchical tier — also share those solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.engine import ExecutionEngine
from repro.exceptions import PlacementError
from repro.placement.evaluation import (
    PlacementEvaluator,
    ServerEvaluation,
    Steps,
    drive,
)
from repro.placement.objective import server_score
from repro.resources.pool import ResourcePool
from repro.util.rng import derive_rng

Assignment = tuple[int, ...]

#: Probability that a child is mutated after selection / crossover.
_MUTATION_PROBABILITY = 0.8


@dataclass(frozen=True)
class GeneticSearchConfig:
    """Tuning knobs for the genetic search."""

    population_size: int = 24
    max_generations: int = 80
    stall_generations: int = 12
    elite_count: int = 2
    crossover_probability: float = 0.6
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise PlacementError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.max_generations < 1:
            raise PlacementError(
                f"max_generations must be >= 1, got {self.max_generations}"
            )
        if self.stall_generations < 1:
            raise PlacementError(
                f"stall_generations must be >= 1, got {self.stall_generations}"
            )
        if not 0 <= self.elite_count < self.population_size:
            raise PlacementError(
                "elite_count must be in [0, population_size)"
            )
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise PlacementError("crossover_probability must be in [0, 1]")


@dataclass
class EvaluatedAssignment:
    """An assignment plus its score and per-server evaluations."""

    assignment: Assignment
    score: float
    evaluations: dict[int, ServerEvaluation]
    feasible: bool

    def servers_used(self) -> set[int]:
        return set(self.assignment)


@dataclass
class GeneticSearchResult:
    """Outcome of one search run."""

    best: EvaluatedAssignment
    generations_run: int
    evaluations_performed: int
    history: list[float] = field(default_factory=list)


class GeneticPlacementSearch:
    """Evolves workload-to-server assignments for one pool."""

    def __init__(
        self,
        evaluator: PlacementEvaluator,
        pool: ResourcePool,
        config: GeneticSearchConfig | None = None,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        constraints=None,
    ):
        if len(pool) == 0:
            raise PlacementError("the pool must contain at least one server")
        self.evaluator = evaluator
        self.pool = pool
        self.servers = list(pool.servers)
        self.config = config or GeneticSearchConfig()
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self._evaluations = 0
        # Anti-affinity constraints price co-located pairs into the
        # fitness (soft: feasibility stays purely capacity-based), so
        # the search evolves away from shared failure domains. With no
        # constraints the scoring path is untouched — bit-identical to
        # the unconstrained search.
        self._constraint_index = None
        if constraints is not None and constraints.enabled:
            from repro.placement.affinity import ConstraintIndex

            self._constraint_index = ConstraintIndex(
                constraints, evaluator.names, self.servers
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        initial: Assignment | Sequence[int],
        extra_seeds: Sequence[Assignment] = (),
    ) -> GeneticSearchResult:
        """Search from an initial assignment; returns the best feasible one.

        ``extra_seeds`` adds further starting points to the population
        (e.g. several greedy solutions), guaranteeing the result is at
        least as good as the best seed. Raises :class:`PlacementError`
        when neither a seed nor any evolved assignment is feasible. The
        search is a pure function of its seeds and ``config.seed``.
        """
        return drive(self.run_steps(initial, extra_seeds))

    def run_steps(
        self,
        initial: Assignment | Sequence[int],
        extra_seeds: Sequence[Assignment] = (),
    ) -> Steps[GeneticSearchResult]:
        """:meth:`run` as a lock-step search
        (:data:`~repro.placement.evaluation.Steps`)."""
        rng = derive_rng(self.config.seed)
        seed_assignment = self._validate_assignment(tuple(initial))
        instrumentation = self.engine.instrumentation
        population = yield from self._evaluate_batch([seed_assignment])
        pending: list[Assignment] = []
        for extra in extra_seeds:
            if len(population) + len(pending) >= self.config.population_size:
                break
            pending.append(self._validate_assignment(tuple(extra)))
        while len(population) + len(pending) < self.config.population_size:
            pending.append(
                (
                    yield from self._mutate(
                        seed_assignment, rng, population[0].evaluations
                    )
                )
            )
        population.extend((yield from self._evaluate_batch(pending)))

        best_feasible = self._best_feasible(population)
        history: list[float] = []
        stall = 0
        for _ in range(self.config.max_generations):
            population = yield from self._next_generation(population, rng)
            instrumentation.count("placement.ga_generations")
            history.append(max(member.score for member in population))
            candidate = self._best_feasible(population)
            if candidate is not None and (
                best_feasible is None or candidate.score > best_feasible.score
            ):
                best_feasible = candidate
                stall = 0
            else:
                stall += 1
                if stall >= self.config.stall_generations:
                    break

        if best_feasible is None:
            raise PlacementError(
                "genetic search found no feasible assignment; the pool "
                "cannot satisfy the CoS commitments for these workloads"
            )
        return GeneticSearchResult(
            best=best_feasible,
            generations_run=len(history),
            evaluations_performed=self._evaluations,
            history=history,
        )

    def evaluate(self, assignment: Assignment) -> EvaluatedAssignment:
        """Score one assignment (cached per server-content subset)."""
        return drive(self._evaluate_batch([assignment]))[0]

    def _evaluate_batch(
        self, assignments: Sequence[Assignment]
    ) -> Steps[list[EvaluatedAssignment]]:
        """Validate and score assignments from one evaluator call."""
        validated = [self._validate_assignment(tuple(a)) for a in assignments]
        asked = yield from self._ask(validated)
        return [
            self._score(assignment, groups, evaluations)
            for assignment, (groups, evaluations) in zip(validated, asked)
        ]

    def _ask(
        self, assignments: Sequence[Assignment]
    ) -> Steps[
        list[tuple[dict[int, list[int]], dict[int, ServerEvaluation]]]
    ]:
        """Each assignment's server groups and their evaluations.

        Every group of every assignment goes into one
        :meth:`PlacementEvaluator.ask` request, so the cache
        misses of a whole batch are solved in one kernel pass. Results
        are bit-identical to asking one by one.
        """
        grouped = [_server_groups(assignment) for assignment in assignments]
        answers = iter(
            (
                yield from self.evaluator.ask(
                    [
                        (self.servers[server].capacity_of(self.attribute), rows)
                        for groups in grouped
                        for server, rows in groups.items()
                    ]
                )
            )
        )
        return [
            (groups, {server: next(answers) for server in groups})
            for groups in grouped
        ]

    def _score(
        self,
        assignment: Assignment,
        groups: dict[int, list[int]],
        evaluations: dict[int, ServerEvaluation],
    ) -> EvaluatedAssignment:
        """Score a validated assignment from its used servers' evaluations."""
        score = 0.0
        feasible = True
        for server_index, server in enumerate(self.servers):
            indices = groups.get(server_index, [])
            if not indices:
                score += 1.0
                continue
            evaluation = evaluations[server_index]
            self._evaluations += 1
            required = evaluation.required if evaluation.fits else None
            score += server_score(server, len(indices), required, self.attribute)
            feasible = feasible and evaluation.fits
        if self._constraint_index is not None:
            score -= self._constraint_index.penalty(assignment)
        return EvaluatedAssignment(
            assignment=assignment,
            score=score,
            evaluations=evaluations,
            feasible=feasible,
        )

    # ------------------------------------------------------------------
    # Evolution operators
    # ------------------------------------------------------------------
    def _next_generation(
        self,
        population: list[EvaluatedAssignment],
        rng: np.random.Generator,
    ) -> Steps[list[EvaluatedAssignment]]:
        population = sorted(population, key=lambda member: member.score, reverse=True)
        next_population = population[: self.config.elite_count]
        children: list[Assignment] = []
        while len(next_population) + len(children) < self.config.population_size:
            parent_a = self._tournament(population, rng)
            # An uncrossed child is its parent, evaluations included.
            held: Optional[dict[int, ServerEvaluation]] = parent_a.evaluations
            if rng.random() < self.config.crossover_probability:
                parent_b = self._tournament(population, rng)
                child = self._crossover(
                    parent_a.assignment, parent_b.assignment, rng
                )
                held = None
            else:
                child = parent_a.assignment
            if rng.random() < _MUTATION_PROBABILITY:
                child = yield from self._mutate(child, rng, held)
            children.append(child)
        next_population.extend((yield from self._evaluate_batch(children)))
        return next_population

    def _tournament(
        self,
        population: list[EvaluatedAssignment],
        rng: np.random.Generator,
        size: int = 3,
    ) -> EvaluatedAssignment:
        contenders = rng.integers(0, len(population), size=size)
        return max(
            (population[int(index)] for index in contenders),
            key=lambda member: member.score,
        )

    def _crossover(
        self, parent_a: Assignment, parent_b: Assignment, rng: np.random.Generator
    ) -> Assignment:
        """Take each workload's server from one parent or the other."""
        take_from_a = rng.random(len(parent_a)) < 0.5
        return tuple(
            parent_a[index] if take_from_a[index] else parent_b[index]
            for index in range(len(parent_a))
        )

    def _mutate(
        self,
        assignment: Assignment,
        rng: np.random.Generator,
        evaluations: Optional[dict[int, ServerEvaluation]] = None,
    ) -> Steps[Assignment]:
        """Empty a poorly utilised server onto the other used servers.

        The victim server is drawn with probability proportional to
        ``1 - f(U)`` across used servers (the paper's mutation bias); its
        workloads are scattered over the remaining used servers, or a
        random server when none remain. ``evaluations`` are the
        assignment's per-server evaluations when the caller already
        holds them (an evaluated member), so none is asked again.
        """
        used = sorted(set(assignment))
        if not used:
            return assignment
        if evaluations is None:
            ((_, evaluations),) = yield from self._ask([assignment])
        weights = np.array(
            [
                1.0 - self._utilization_weight(evaluations[server_index], server_index)
                for server_index in used
            ]
        )
        weights = np.clip(weights, 1e-6, None)
        victim = int(rng.choice(used, p=weights / weights.sum()))
        targets = [server_index for server_index in used if server_index != victim]
        if not targets:
            targets = [
                index for index in range(len(self.servers)) if index != victim
            ]
        if not targets:
            return assignment
        mutated = list(assignment)
        for workload_index, server_index in enumerate(assignment):
            if server_index == victim:
                mutated[workload_index] = int(
                    targets[int(rng.integers(0, len(targets)))]
                )
        return tuple(mutated)

    def _utilization_weight(
        self, evaluation: ServerEvaluation, server_index: int
    ) -> float:
        if not evaluation.fits:
            return 0.0
        return float(
            min(1.0, evaluation.utilization)
            ** (2 * self.servers[server_index].cpus)
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _best_feasible(
        self, population: list[EvaluatedAssignment]
    ) -> EvaluatedAssignment | None:
        feasible = [member for member in population if member.feasible]
        if not feasible:
            return None
        return max(feasible, key=lambda member: member.score)

    def _validate_assignment(self, assignment: Assignment) -> Assignment:
        if len(assignment) != self.evaluator.n_workloads:
            raise PlacementError(
                f"assignment covers {len(assignment)} workloads, expected "
                f"{self.evaluator.n_workloads}"
            )
        for server_index in assignment:
            if not 0 <= server_index < len(self.servers):
                raise PlacementError(
                    f"server index {server_index} out of range "
                    f"[0, {len(self.servers)})"
                )
        return tuple(int(server_index) for server_index in assignment)


def _server_groups(assignment: Assignment) -> dict[int, list[int]]:
    """Server index -> its workload indices, servers in first-use order."""
    groups: dict[int, list[int]] = {}
    for workload_index, server_index in enumerate(assignment):
        groups.setdefault(server_index, []).append(workload_index)
    return groups
