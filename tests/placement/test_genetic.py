"""Tests for the genetic placement search."""

import numpy as np
import pytest

from repro.core.cos import CoSCommitment
from repro.exceptions import PlacementError
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.genetic import GeneticPlacementSearch, GeneticSearchConfig
from repro.placement.greedy import first_fit_decreasing
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def constant_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", np.full(n, cos1_level), cal),
        AllocationTrace(f"{name}.cos2", np.full(n, cos2_level), cal),
    )


def small_problem(cal, n_workloads=8, n_servers=8):
    rng = np.random.default_rng(11)
    n = cal.n_observations
    pairs = [
        CoSAllocationPair(
            f"w{i}",
            AllocationTrace(f"w{i}.c1", rng.uniform(0, 1.5, n), cal),
            AllocationTrace(f"w{i}.c2", rng.uniform(0, 3, n), cal),
        )
        for i in range(n_workloads)
    ]
    evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
    pool = ResourcePool(homogeneous_servers(n_servers, cpus=16))
    return evaluator, pool


class TestConfig:
    def test_defaults_valid(self):
        GeneticSearchConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(PlacementError):
            GeneticSearchConfig(population_size=1)
        with pytest.raises(PlacementError):
            GeneticSearchConfig(max_generations=0)
        with pytest.raises(PlacementError):
            GeneticSearchConfig(elite_count=24, population_size=24)
        with pytest.raises(PlacementError):
            GeneticSearchConfig(crossover_probability=1.5)
        with pytest.raises(PlacementError):
            GeneticSearchConfig(stall_generations=0)


class TestEvaluate:
    def test_score_composition(self, cal):
        evaluator, pool = small_problem(cal, n_workloads=2, n_servers=3)
        search = GeneticPlacementSearch(evaluator, pool)
        evaluated = search.evaluate((0, 0))
        # One used server, two empty -> score includes +2 for the empties.
        assert evaluated.feasible
        assert evaluated.score > 2.0
        assert set(evaluated.assignment) == {0}

    def test_infeasible_detected(self, cal):
        pairs = [constant_pair(cal, "a", 12.0, 0.0), constant_pair(cal, "b", 12.0, 0.0)]
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        pool = ResourcePool(homogeneous_servers(2, cpus=16))
        search = GeneticPlacementSearch(evaluator, pool)
        together = search.evaluate((0, 0))
        assert not together.feasible
        apart = search.evaluate((0, 1))
        assert apart.feasible
        assert apart.score > together.score

    def test_wrong_length_rejected(self, cal):
        evaluator, pool = small_problem(cal, n_workloads=3)
        search = GeneticPlacementSearch(evaluator, pool)
        with pytest.raises(PlacementError):
            search.evaluate((0,))

    def test_out_of_range_server_rejected(self, cal):
        evaluator, pool = small_problem(cal, n_workloads=2, n_servers=2)
        search = GeneticPlacementSearch(evaluator, pool)
        with pytest.raises(PlacementError):
            search.evaluate((0, 5))


class TestRun:
    def test_improves_on_spread_seed(self, cal):
        evaluator, pool = small_problem(cal)
        config = GeneticSearchConfig(
            seed=0, max_generations=30, stall_generations=8, population_size=16
        )
        search = GeneticPlacementSearch(evaluator, pool, config)
        spread = tuple(range(8))  # one workload per server
        result = search.run(spread)
        assert result.best.feasible
        spread_score = search.evaluate(spread).score
        assert result.best.score >= spread_score
        # These small workloads easily share; expect consolidation.
        assert len(result.best.servers_used()) < 8

    def test_never_worse_than_greedy_seed(self, cal):
        evaluator, pool = small_problem(cal)
        seed_assignment = first_fit_decreasing(evaluator, pool)
        config = GeneticSearchConfig(seed=1, max_generations=20, stall_generations=5)
        search = GeneticPlacementSearch(evaluator, pool, config)
        result = search.run(seed_assignment)
        assert result.best.score >= search.evaluate(seed_assignment).score

    def test_reproducible_with_seed(self, cal):
        evaluator, pool = small_problem(cal)
        seed_assignment = first_fit_decreasing(evaluator, pool)
        config = GeneticSearchConfig(seed=7, max_generations=10, stall_generations=3)

        def run_once():
            search = GeneticPlacementSearch(evaluator, pool, config)
            return search.run(seed_assignment).best.assignment

        assert run_once() == run_once()

    def test_raises_when_nothing_feasible(self, cal):
        pairs = [constant_pair(cal, "big", 12.0, 0.0), constant_pair(cal, "big2", 12.0, 0.0)]
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        pool = ResourcePool(homogeneous_servers(1, cpus=16))
        config = GeneticSearchConfig(seed=0, max_generations=3, stall_generations=2)
        search = GeneticPlacementSearch(evaluator, pool, config)
        with pytest.raises(PlacementError):
            search.run((0, 0))

    def test_empty_pool_rejected(self, cal):
        evaluator, _ = small_problem(cal, n_workloads=2, n_servers=2)
        with pytest.raises(PlacementError):
            GeneticPlacementSearch(evaluator, ResourcePool([]))

    def test_history_recorded(self, cal):
        evaluator, pool = small_problem(cal)
        config = GeneticSearchConfig(seed=2, max_generations=5, stall_generations=5)
        search = GeneticPlacementSearch(evaluator, pool, config)
        result = search.run(first_fit_decreasing(evaluator, pool))
        assert len(result.history) == result.generations_run
        assert result.evaluations_performed > 0
