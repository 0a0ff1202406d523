"""The failure what-if's repair against its definition.

``reference_repair`` is the repair as it was written before its
placement step moved into :func:`repro.placement.greedy._greedy_place`:
re-decide the survivors, evict the shortest fitting suffix from a
degraded server, then best-fit each displaced workload by least
``limit - required`` with its own loop and probe the idle survivors in
one batch. The shipped :func:`repro.placement.failure._repair_assignment`
must return the same assignment, or ``None``, on every case.
"""

import functools

import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.placement.consolidation import Consolidator
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.failure import FailurePlanner, _repair_assignment
from repro.resources.pool import ResourcePool
from repro.resources.server import ServerSpec
from repro.workloads.ensemble import scaled_ensemble

ENSEMBLE_SEEDS = (3, 11, 29, 2006, 2007, 4242)
#: ``(scope, degraded factor)``: lost servers, lost racks, and both
#: degraded at two factors.
SWEEPS = (
    ("server", None),
    ("rack", None),
    ("server", 0.5),
    ("rack", 0.5),
    ("server", 0.3),
    ("rack", 0.3),
)
#: CPUs per server, two to a rack; the homogeneous pool is tight enough
#: that some displaced workloads find no home.
POOLS = {
    "homogeneous": (16,) * 6,
    "mixed": (16, 8, 24, 12, 16, 8, 24, 12),
}

TRANSLATOR = QoSTranslator(PoolCommitments.of(theta=0.95))
POLICY = QoSPolicy(
    normal=case_study_qos(m_degr_percent=0),
    failure=case_study_qos(m_degr_percent=3, t_degr_minutes=None),
)


def reference_repair(evaluator, servers, attribute, normal_assignment, degraded):
    """The repair with its own displaced-workload loop."""
    index_of = {name: index for index, name in enumerate(evaluator.names)}
    survivor_of = {server.name: index for index, server in enumerate(servers)}
    limits = [server.capacity_of(attribute) for server in servers]
    peaks = evaluator.peak_allocations()

    def largest_first(workload):
        return (-peaks[workload], workload)

    groups = {}
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

    assignment = [-1] * evaluator.n_workloads
    for survivor, residents in groups.items():
        for workload in residents:
            assignment[workload] = survivor
    displaced = sorted(
        (
            workload
            for workload, survivor in enumerate(assignment)
            if survivor < 0
        ),
        key=largest_first,
    )
    for workload in displaced:
        used = sorted(groups)
        evaluations = evaluator.evaluate_groups(
            [(limits[survivor], groups[survivor] + [workload]) for survivor in used]
        )
        fitting = [
            (limits[survivor] - evaluation.required, survivor)
            for survivor, evaluation in zip(used, evaluations)
            if evaluation.fits
        ]
        if fitting:
            _, target = min(fitting)
        else:
            idle = [
                survivor
                for survivor in range(len(servers))
                if survivor not in groups
            ]
            alone = evaluator.evaluate_groups(
                [(limits[survivor], [workload]) for survivor in idle]
            )
            target = next(
                (
                    survivor
                    for survivor, evaluation in zip(idle, alone)
                    if evaluation.fits
                ),
                None,
            )
            if target is None:
                return None
        groups.setdefault(target, []).append(workload)
        assignment[workload] = target
    return assignment


def _pool(sizes):
    return ResourcePool(
        ServerSpec(f"s{index:02d}", cpus=cpus, rack=f"r{index // 2}")
        for index, cpus in enumerate(sizes)
    )


@functools.lru_cache(maxsize=None)
def _outcomes(ensemble_seed, pool_kind, relax_all):
    """``(label, reference, ours)`` for every case of every sweep."""
    demands = scaled_ensemble(16, seed=ensemble_seed, weeks=1, slot_minutes=60)
    modes = {
        failure_mode: [
            TRANSLATOR.translate(demand, POLICY.mode(failure_mode=failure_mode)).pair
            for demand in demands
        ]
        for failure_mode in (False, True)
    }
    pool = _pool(POOLS[pool_kind])
    normal = Consolidator(pool, TRANSLATOR.commitments.cos2).consolidate(
        modes[False], algorithm="best_fit"
    )
    scenarios = FailurePlanner(TRANSLATOR)._scenarios
    evaluators = {}
    outcomes = []
    for scope, factor in SWEEPS:
        for case in scenarios(scope, pool, normal, factor, None, None):
            affected = case.affected_workloads
            surviving = pool
            if case.failed_servers:
                surviving = surviving.without(*case.failed_servers)
            if case.degraded:
                surviving = surviving.with_degraded(dict(case.degraded))
            degraded = [name for name, _ in case.degraded]
            # One evaluator per QoS mix, as the sweep shares them: a
            # cache hit returns what a fresh solve would.
            mix = tuple(relax_all or demand.name in affected for demand in demands)
            if mix not in evaluators:
                evaluators[mix] = PlacementEvaluator(
                    [modes[relaxed][index] for index, relaxed in enumerate(mix)],
                    TRANSLATOR.commitments.cos2,
                )
            reference = reference_repair(
                evaluators[mix],
                surviving.servers,
                "cpu",
                normal.assignment,
                degraded,
            )
            ours = _repair_assignment(
                evaluators[mix],
                surviving,
                "cpu",
                normal.assignment,
                degraded,
            )
            outcomes.append(
                (
                    case.label,
                    None if reference is None else tuple(reference),
                    None if ours is None else tuple(ours),
                )
            )
    return outcomes


@pytest.mark.parametrize("relax_all", [False, True])
@pytest.mark.parametrize("pool_kind", sorted(POOLS))
@pytest.mark.parametrize("ensemble_seed", ENSEMBLE_SEEDS)
def test_repair_matches_the_reference(ensemble_seed, pool_kind, relax_all):
    outcomes = _outcomes(ensemble_seed, pool_kind, relax_all)
    assert outcomes
    for label, reference, ours in outcomes:
        assert ours == reference, label


@pytest.mark.parametrize("pool_kind", sorted(POOLS))
def test_both_outcomes_are_exercised(pool_kind):
    """Each pool shape has repaired cases and cases repair cannot finish."""
    outcomes = [
        ours
        for ensemble_seed in ENSEMBLE_SEEDS
        for _, _, ours in _outcomes(ensemble_seed, pool_kind, False)
    ]
    assert any(ours is None for ours in outcomes)
    assert any(ours is not None for ours in outcomes)
