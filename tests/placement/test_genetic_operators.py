"""Property tests for the genetic operators themselves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment
from repro.placement.evaluation import PlacementEvaluator, drive
from repro.placement.genetic import GeneticPlacementSearch, GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar

N_WORKLOADS = 6
N_SERVERS = 5


@pytest.fixture(scope="module")
def search():
    calendar = TraceCalendar(weeks=1, slot_minutes=360)
    rng = np.random.default_rng(3)
    n = calendar.n_observations
    pairs = [
        CoSAllocationPair(
            f"w{i}",
            AllocationTrace(f"w{i}.c1", rng.uniform(0, 1, n), calendar),
            AllocationTrace(f"w{i}.c2", rng.uniform(0, 2, n), calendar),
        )
        for i in range(N_WORKLOADS)
    ]
    evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
    pool = ResourcePool(homogeneous_servers(N_SERVERS, cpus=16))
    return GeneticPlacementSearch(
        evaluator, pool, GeneticSearchConfig(seed=0)
    )


assignments = st.lists(
    st.integers(min_value=0, max_value=N_SERVERS - 1),
    min_size=N_WORKLOADS,
    max_size=N_WORKLOADS,
).map(tuple)


class TestCrossover:
    @settings(max_examples=40, deadline=None)
    @given(assignments, assignments, st.integers(0, 2**31 - 1))
    def test_child_genes_come_from_parents(self, search, a, b, seed):
        rng = np.random.default_rng(seed)
        child = search._crossover(a, b, rng)
        assert len(child) == N_WORKLOADS
        for index, gene in enumerate(child):
            assert gene in (a[index], b[index])

    @settings(max_examples=10, deadline=None)
    @given(assignments, st.integers(0, 2**31 - 1))
    def test_self_crossover_is_identity(self, search, a, seed):
        rng = np.random.default_rng(seed)
        assert search._crossover(a, a, rng) == a


class TestMutation:
    @settings(max_examples=40, deadline=None)
    @given(assignments, st.integers(0, 2**31 - 1))
    def test_mutation_preserves_length_and_range(self, search, a, seed):
        rng = np.random.default_rng(seed)
        mutated = drive(search._mutate(a, rng))
        assert len(mutated) == N_WORKLOADS
        assert all(0 <= gene < N_SERVERS for gene in mutated)

    @settings(max_examples=40, deadline=None)
    @given(assignments, st.integers(0, 2**31 - 1))
    def test_mutation_never_adds_servers(self, search, a, seed):
        """The mutation migrates one server's workloads onto the others,
        so the used-server set never grows (it usually shrinks)."""
        rng = np.random.default_rng(seed)
        mutated = drive(search._mutate(a, rng))
        before = set(a)
        after = set(mutated)
        if len(before) > 1:
            assert after <= before
            assert len(after) <= len(before)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, N_SERVERS - 1), st.integers(0, 2**31 - 1))
    def test_single_server_assignment_moves_whole_group(
        self, search, server, seed
    ):
        """With only one used server the victim's workloads must go to
        some other server (all of them together or scattered)."""
        a = tuple([server] * N_WORKLOADS)
        rng = np.random.default_rng(seed)
        mutated = drive(search._mutate(a, rng))
        assert server not in set(mutated) or mutated == a
        # They must land on valid servers.
        assert all(0 <= gene < N_SERVERS for gene in mutated)


class TestEvaluateDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(assignments)
    def test_evaluate_is_deterministic(self, search, a):
        first = search.evaluate(a)
        second = search.evaluate(a)
        assert first.score == second.score
        assert first.feasible == second.feasible
