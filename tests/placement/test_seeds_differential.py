"""The three greedy seeds against their definition.

``reference_seed`` is the loop the module docstrings of
:mod:`repro.placement.greedy` and :mod:`repro.placement.correlation`
state, asking one ``evaluate_group`` per candidate. The shipped seeds
batch each step's candidates into one kernel solve; they must place
every workload on the same server and ask for exactly the same
searches.
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
)
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.greedy import best_fit_decreasing, first_fit_decreasing
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
        solves.append(len(args[5]))
        return batched(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_evaluate_items_batched", counting)
    pool = ResourcePool(homogeneous_servers(len(pairs), cpus=16))
    assignment = correlation_aware_seed(_evaluator(pairs), pool)
    servers_opened = len(set(assignment))
    assert len(solves) <= len(pairs) + servers_opened
    # The candidates really were batched: some solve carried several rows.
    assert max(solves) > 1
