"""The three greedy seeds against their definition.

``reference_seed`` is the loop the module docstrings of
:mod:`repro.placement.greedy` and :mod:`repro.placement.correlation`
state, asking one ``evaluate_group`` per candidate. The shipped seeds
batch each step's candidates into one kernel solve; they must place
every workload on the same server and ask for exactly the same
searches. Advanced in lock-step (the genetic search's seeding), the
three must return what each returns alone, errors included.
"""

import numpy as np
import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import case_study_qos
from repro.core.translation import QoSTranslator
from repro.engine.instrumentation import Instrumentation
from repro.exceptions import InfeasiblePlacementError
from repro.placement import evaluation
from repro.placement.correlation import (
    allocation_correlation_matrix,
    correlation_aware_seed,
    least_correlated_choice,
)
from repro.placement.evaluation import PlacementEvaluator, drive
from repro.placement.greedy import (
    _greedy_place,
    best_fit_choice,
    best_fit_decreasing,
    first_fit_choice,
    first_fit_decreasing,
)
from repro.resources.pool import ResourcePool
from repro.resources.server import ServerSpec, homogeneous_servers
from repro.workloads.ensemble import scaled_ensemble

SEEDS = {
    "first_fit": first_fit_decreasing,
    "best_fit": best_fit_decreasing,
    "correlation": correlation_aware_seed,
}
ENSEMBLE_SEEDS = (3, 11, 29, 2006, 2007, 4242)
COUNTERS = ("placement.cache_misses", "kernel.rows")


def reference_seed(evaluator, pool, policy, attribute="cpu"):
    """Peak-decreasing greedy placement, one lone search per candidate."""
    servers = list(pool.servers)
    correlation = allocation_correlation_matrix(evaluator)
    order = np.argsort(-evaluator.peak_allocations(), kind="stable")
    groups, assignment = {}, [-1] * evaluator.n_workloads
    for workload in (int(index) for index in order):
        target, best = None, np.inf
        for server in sorted(groups):
            found = evaluator.evaluate_group(
                groups[server] + [workload], servers[server], attribute
            )
            score = {
                "first_fit": 0.0,
                "best_fit": -found.required,
                "correlation": float(
                    np.mean([correlation[workload, o] for o in groups[server]])
                ),
            }[policy]
            if found.fits and score < best:
                target, best = server, score
        idle = (s for s in range(len(servers)) if s not in groups)
        while target is None:
            server = next(idle, None)
            if server is None:
                raise InfeasiblePlacementError(f"no server left for {workload}")
            if evaluator.evaluate_group([workload], servers[server], attribute).fits:
                target = server
        groups.setdefault(target, []).append(workload)
        assignment[workload] = target
    return tuple(assignment)


def _pairs(ensemble_seed, n_apps=18):
    demands = scaled_ensemble(n_apps, seed=ensemble_seed, weeks=1, slot_minutes=60)
    translator = QoSTranslator(PoolCommitments.of(theta=0.95))
    qos = case_study_qos(m_degr_percent=0)
    return [translator.translate(demand, qos).pair for demand in demands]


def _evaluator(pairs):
    return PlacementEvaluator(
        pairs,
        PoolCommitments.of(theta=0.95).cos2,
        instrumentation=Instrumentation(),
    )


def _run(place, pairs, pool):
    """``(assignment or the error type, the counters that must agree)``."""
    evaluator = _evaluator(pairs)
    try:
        outcome = place(evaluator, pool)
    except InfeasiblePlacementError:
        outcome = InfeasiblePlacementError
    counters = evaluator.instrumentation.counters()
    return outcome, {name: counters.get(name, 0) for name in COUNTERS}


def _heterogeneous_pool(count):
    """Mixed sizes, so per-item limits differ inside one batch."""
    sizes = (16, 8, 24, 12, 32, 8)
    return ResourcePool(
        [ServerSpec(f"s{i:02d}", cpus=sizes[i % len(sizes)]) for i in range(count)]
    )


@pytest.fixture(scope="module", params=ENSEMBLE_SEEDS)
def pairs(request):
    return _pairs(request.param)


@pytest.mark.parametrize("policy", sorted(SEEDS))
class TestSeedsMatchTheirDefinition:
    def _check(self, policy, pairs, pool):
        ours, our_counts = _run(SEEDS[policy], pairs, pool)
        reference, reference_counts = _run(
            lambda evaluator, pool: reference_seed(evaluator, pool, policy),
            pairs,
            pool,
        )
        assert ours == reference
        assert our_counts == reference_counts
        assert our_counts["kernel.rows"] > 0
        return ours

    def test_homogeneous_pool(self, policy, pairs):
        pool = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
        assignment = self._check(policy, pairs, pool)
        assert 1 < len(set(assignment)) < len(pairs)

    def test_heterogeneous_pool(self, policy, pairs):
        assignment = self._check(policy, pairs, _heterogeneous_pool(len(pairs)))
        assert assignment is not InfeasiblePlacementError

    def test_pool_one_server_too_small(self, policy, pairs):
        roomy = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
        needed = len(set(SEEDS[policy](_evaluator(pairs), roomy)))
        tight = ResourcePool(homogeneous_servers(needed - 1, cpus=16))
        assert self._check(policy, pairs, tight) is InfeasiblePlacementError


def test_correlation_seed_solve_budget(monkeypatch):
    """One batched solve per placement step, one per server opened."""
    pairs = _pairs(2006, n_apps=40)
    solves = []
    batched = evaluation._evaluate_items_batched

    def counting(*args, **kwargs):
        solves.append(sum(len(items) for _, items in args[0]))
        return batched(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_evaluate_items_batched", counting)
    pool = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
    assignment = correlation_aware_seed(_evaluator(pairs), pool)
    servers_opened = len(set(assignment))
    assert len(solves) <= len(pairs) + servers_opened
    # The candidates really were batched: some solve carried several rows.
    assert max(solves) > 1


def _lock_step(evaluator, pool):
    return drive(
        _greedy_place(
            evaluator,
            pool,
            (first_fit_choice, best_fit_choice, least_correlated_choice(evaluator)),
            "cpu",
        )
    )


def _alone(place, pairs, pool):
    try:
        return place(_evaluator(pairs), pool)
    except InfeasiblePlacementError as error:
        return error


def _same_outcome(ours, alone):
    if isinstance(alone, InfeasiblePlacementError):
        assert type(ours) is type(alone)
        assert str(ours) == str(alone)
    else:
        assert ours == alone


class TestLockStepSeeds:
    """One three-policy loop returns the three one-policy placements."""

    @pytest.mark.parametrize("shape", ["homogeneous", "heterogeneous", "tight"])
    def test_matches_the_seeds_placed_alone(self, pairs, shape):
        if shape == "heterogeneous":
            pool = _heterogeneous_pool(len(pairs))
        else:
            pool = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
        if shape == "tight":
            # One server short of what the leanest seed needs: every
            # seed fails, each at its own step and with its own message.
            needed = min(
                len(set(place(_evaluator(pairs), pool))) for place in SEEDS.values()
            )
            pool = ResourcePool(homogeneous_servers(needed - 1, cpus=16))
        outcomes = _lock_step(_evaluator(pairs), pool)
        assert len(outcomes) == 3
        for ours, policy in zip(outcomes, ("first_fit", "best_fit", "correlation")):
            _same_outcome(ours, _alone(SEEDS[policy], pairs, pool))
        if shape == "tight":
            assert all(
                isinstance(ours, InfeasiblePlacementError) for ours in outcomes
            )

    def test_one_seed_failing_leaves_the_others(self, pairs):
        """Sizes between the seeds' needs: some fail, the rest finish."""
        roomy = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
        needs = sorted(
            {len(set(place(_evaluator(pairs), roomy))) for place in SEEDS.values()}
        )
        for size in range(needs[0], needs[-1]):
            pool = ResourcePool(homogeneous_servers(size, cpus=16))
            outcomes = _lock_step(_evaluator(pairs), pool)
            for ours, policy in zip(
                outcomes, ("first_fit", "best_fit", "correlation")
            ):
                _same_outcome(ours, _alone(SEEDS[policy], pairs, pool))


@pytest.mark.parametrize("ensemble_seed, servers", [(3, 5), (3, 6), (2007, 6)])
def test_consolidator_raises_or_skips_as_the_sequential_seeds_did(
    ensemble_seed, servers
):
    """First-fit's error, else best-fit's, propagates; the correlation
    seed's only drops it (ensemble 3 on 6 servers: best-fit alone fails;
    2007 on 6: the correlation seed alone fails; 5: all fail)."""
    from repro.placement.consolidation import Consolidator
    from repro.placement.genetic import GeneticSearchConfig

    pairs = _pairs(ensemble_seed)
    pool = ResourcePool(homogeneous_servers(servers, cpus=16))
    sequential = [_alone(place, pairs, pool) for place in SEEDS.values()]
    evaluator = _evaluator(pairs)
    consolidator = Consolidator(
        pool,
        PoolCommitments.of(theta=0.95).cos2,
        config=GeneticSearchConfig(
            population_size=4, max_generations=1, stall_generations=1, seed=0
        ),
    )
    expected = next(
        (outcome for outcome in sequential[:2] if isinstance(outcome, Exception)),
        None,
    )
    if expected is not None:
        with pytest.raises(InfeasiblePlacementError) as raised:
            consolidator.consolidate_with_evaluator(evaluator, "genetic")
        assert str(raised.value) == str(expected)
        return
    consolidator.consolidate_with_evaluator(evaluator, "genetic")
    skipped = isinstance(sequential[2], InfeasiblePlacementError)
    counters = consolidator.engine.instrumentation.counters()
    assert counters["placement.correlation_seed_skipped"] == int(skipped)
    assert skipped


def test_lock_step_solve_budget(monkeypatch):
    """One batched solve per placement step for all three seeds, plus
    one per server any of them opens."""
    pairs = _pairs(2006, n_apps=40)
    solves = []
    batched = evaluation._evaluate_items_batched

    def counting(*args, **kwargs):
        solves.append(sum(len(items) for _, items in args[0]))
        return batched(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_evaluate_items_batched", counting)
    pool = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
    outcomes = _lock_step(_evaluator(pairs), pool)
    servers_opened = sum(len(set(assignment)) for assignment in outcomes)
    assert len(solves) <= len(pairs) + servers_opened
    # Each step's batch carried the candidates of more than one seed.
    assert max(solves) > max(len(set(assignment)) for assignment in outcomes)
