"""Checks a capacity plan without the planner's fast paths.

The planner reaches its numbers through the batch kernel, evaluator
caches and a shared failure-sweep scratch. The validator re-derives
what it checks from the demand traces through the scalar reference
only: :class:`QoSTranslator.translate` one workload at a time,
:class:`SingleServerSimulator` and the scalar :func:`required_capacity`
bisection.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import workloads
from repro.core.cos import PoolCommitments
from repro.core.framework import CapacityPlan
from repro.core.qos import QoSPolicy
from repro.core.translation import QoSTranslator
from repro.placement.consolidation import ConsolidationResult
from repro.placement.failure import FailureReport
from repro.placement.required_capacity import required_capacity
from repro.placement.simulator import SingleServerSimulator
from repro.resources.pool import ResourcePool
from repro.traces.trace import DemandTrace
from repro.util.rng import SeedSequenceFactory

#: Used servers whose required capacity is recomputed from the traces.
SAMPLED_SERVERS = 3
_SLACK = 1e-9


def check_assignment(
    result: ConsolidationResult,
    names: Sequence[str],
    capacities: Mapping[str, float],
    label: str,
) -> list[str]:
    """Every workload on exactly one allowed server, within its capacity."""
    problems = []
    placed: dict[str, list[str]] = {}
    for server, hosted in result.assignment.items():
        for name in hosted:
            placed.setdefault(name, []).append(server)
    for name in names:
        servers = placed.pop(name, [])
        if len(servers) != 1:
            problems.append(
                f"{label}: workload {name!r} is on {len(servers)} servers "
                f"{servers}, expected exactly one"
            )
    for name in placed:
        problems.append(f"{label}: assignment names unknown workload {name!r}")
    for server in result.assignment:
        if server not in capacities:
            problems.append(f"{label}: workloads placed on unavailable server {server!r}")
            continue
        required = result.required_by_server.get(server)
        if required is None:
            problems.append(f"{label}: no required capacity for {server!r}")
        elif not required <= capacities[server] + _SLACK:
            problems.append(
                f"{label}: {server!r} requires {required} of {capacities[server]}"
            )
    total = sum(result.required_by_server.values())
    if abs(total - result.sum_required) > 1e-6:
        problems.append(
            f"{label}: sum_required {result.sum_required} != "
            f"sum over servers {total}"
        )
    return problems


def check_sampled_servers(
    result: ConsolidationResult,
    demands: Sequence[DemandTrace],
    policy: QoSPolicy,
    capacities: Mapping[str, float],
    commitments: PoolCommitments,
    tolerance: float,
    sample_seed: int,
) -> list[str]:
    """Recompute a seeded sample of servers with the scalar oracle."""
    problems = []
    demand_by_name = {demand.name: demand for demand in demands}
    used = sorted(set(result.assignment) & set(capacities))
    rng = SeedSequenceFactory(sample_seed).generator("record", "validator")
    sample = rng.permutation(len(used))[:SAMPLED_SERVERS]
    translator = QoSTranslator(commitments)
    cos2 = commitments.cos2
    for server in (used[index] for index in sorted(sample)):
        hosted = [name for name in result.assignment[server] if name in demand_by_name]
        claimed = result.required_by_server.get(server)
        if not hosted or claimed is None:
            continue  # check_assignment reports these
        pairs = [
            translator.translate(demand_by_name[name], policy.normal).pair
            for name in hosted
        ]
        oracle = required_capacity(
            pairs,
            capacity_limit=capacities[server],
            commitment=cos2,
            tolerance=tolerance,
        )
        if not oracle.fits:
            problems.append(f"{server!r}: the scalar search says {hosted} do not fit")
            continue
        if abs(oracle.required_capacity - claimed) > tolerance + _SLACK:
            problems.append(
                f"{server!r}: plan requires {claimed}, the scalar search "
                f"{oracle.required_capacity} (tolerance {tolerance})"
            )
        calendar = pairs[0].calendar
        report = SingleServerSimulator.from_pairs(pairs).evaluate(claimed)
        if not report.cos1_fits:
            problems.append(f"{server!r}: CoS1 peak exceeds the required {claimed}")
        if report.theta_measured < cos2.theta - 1e-12:
            problems.append(
                f"{server!r}: theta {report.theta_measured} at the required "
                f"capacity is below {cos2.theta}"
            )
        if not report.deadline_ok(cos2, calendar):
            problems.append(
                f"{server!r}: demand deferred {report.max_deferred_slots} slots "
                f"at the required capacity, past the deadline"
            )
    return problems


def failure_reports(plan: CapacityPlan) -> dict[str, FailureReport]:
    """Every failure sweep of a plan, by scope (``server`` is the baseline)."""
    reports = {}
    if plan.failure_report is not None:
        reports["server"] = plan.failure_report
    reports.update(plan.domain_reports or {})
    return reports


def check_failure_cases(
    plan: CapacityPlan, names: Sequence[str], capacities: Mapping[str, float]
) -> list[str]:
    """No what-if places anything on a server its scenario failed."""
    problems = []
    for scope, report in failure_reports(plan).items():
        for case in report.cases:
            if not case.feasible:
                continue
            label = f"failure case {scope}:{case.label}"
            if case.result is None:
                problems.append(f"{label}: feasible without a placement")
                continue
            surviving = {
                server: capacity
                for server, capacity in capacities.items()
                if server not in case.failed_servers
            }
            problems += check_assignment(case.result, names, surviving, label)
    return problems


def validate_plan(
    plan: CapacityPlan,
    demands: Sequence[DemandTrace],
    policy: QoSPolicy,
    pool: ResourcePool,
    *,
    sample_seed: int,
    commitments: PoolCommitments = PoolCommitments.of(theta=workloads.THETA),
    tolerance: float = workloads.TOLERANCE,
) -> list[str]:
    """Everything wrong with ``plan``; an empty list means it is valid."""
    names = [demand.name for demand in demands]
    capacities = {server.name: server.capacity_of("cpu") for server in pool.servers}
    consolidation = plan.consolidation
    return (
        check_assignment(consolidation, names, capacities, "normal plan")
        + check_sampled_servers(
            consolidation,
            demands,
            policy,
            capacities,
            commitments,
            tolerance,
            sample_seed,
        )
        + check_failure_cases(plan, names, capacities)
    )
