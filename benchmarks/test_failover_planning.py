"""Section VI-C / VII: failure planning without a spare server.

The paper's claim: run normal mode with the strict QoS (Table I cases
1/4, needing N servers); when any single server fails, the affected
system still fits on the remaining N-1 servers *if* the relaxed failure-
mode QoS (cases 2/3/5/6) is applied — so no spare server is required.

The benchmark reproduces the what-if sweep: consolidate under strict
normal-mode QoS, then remove each used server in turn and re-place its
workloads on the survivors, every workload at the relaxed failure-mode
QoS (the rest stay where they are; see ``repro.placement.failure``).
"""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers

from conftest import M_DEGR_PERCENT, print_series

SEARCH = GeneticSearchConfig(
    seed=1, population_size=24, max_generations=120, stall_generations=20
)


@pytest.mark.parametrize("theta", [0.6, 0.95], ids=["theta-0.60", "theta-0.95"])
def test_failover_without_spare(ensemble, benchmark, theta):
    framework = ROpus(
        PoolCommitments.of(theta=theta, deadline_minutes=60),
        ResourcePool(homogeneous_servers(14, cpus=16)),
        search_config=SEARCH,
    )
    policy = QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(
            m_degr_percent=M_DEGR_PERCENT, t_degr_minutes=30.0
        ),
    )

    def compute():
        return framework.plan(
            ensemble, policy, plan_failures=True, relax_all_on_failure=True
        )

    plan = benchmark.pedantic(compute, rounds=1, iterations=1)
    report = plan.failure_report
    assert report is not None

    rows = [
        f"normal mode: {plan.servers_used} servers "
        f"(C_requ={plan.consolidation.sum_required:.0f})"
    ]
    for case in report.cases:
        status = "ok" if case.feasible else "INFEASIBLE"
        used = case.servers_used if case.servers_used is not None else "-"
        rows.append(
            f"fail {case.label}: {status}, "
            f"{used} surviving servers used, "
            f"{len(case.affected_workloads)} workloads displaced"
        )
    rows.append(f"spare server needed: {report.spare_server_needed}")
    print_series(
        f"Failure planning (theta={theta}): strict normal QoS, "
        "relaxed failure QoS",
        rows,
    )

    # The paper's headline: every single-server failure is absorbable
    # with the relaxed QoS — no spare server needed.
    assert report.all_supported, "failure modes required a spare server"
    # One what-if per server used in normal mode.
    assert len(report.cases) == plan.servers_used
    # Each re-placement fits on at most (normal - 1) + margin servers of
    # the surviving pool (13 servers remain out of 14).
    for case in report.cases:
        assert case.result is not None
        assert case.servers_used <= 13


def test_failover_strict_failure_qos_needs_more(ensemble, benchmark):
    """Ablation of the claim: if failure mode must keep the *strict* QoS,
    the re-placements need at least as many servers as the relaxed
    failure QoS — quantifying what the QoS relaxation buys."""
    theta = 0.6
    framework = ROpus(
        PoolCommitments.of(theta=theta, deadline_minutes=60),
        ResourcePool(homogeneous_servers(14, cpus=16)),
        search_config=SEARCH,
    )
    strict = case_study_qos(m_degr_percent=0)
    relaxed = case_study_qos(m_degr_percent=M_DEGR_PERCENT, t_degr_minutes=30.0)

    def compute():
        plans = {}
        for label, failure_qos in [("strict", strict), ("relaxed", relaxed)]:
            policy = QoSPolicy(normal=strict, failure=failure_qos)
            plans[label] = framework.plan(
                ensemble, policy, plan_failures=True, relax_all_on_failure=True
            )
        return plans

    plans = benchmark.pedantic(compute, rounds=1, iterations=1)

    def worst_servers(plan):
        return max(
            case.servers_used
            for case in plan.failure_report.cases
            if case.servers_used is not None
        )

    strict_worst = worst_servers(plans["strict"])
    relaxed_worst = worst_servers(plans["relaxed"])
    print_series(
        "Failure QoS ablation (theta=0.6)",
        [
            f"strict failure QoS: worst-case {strict_worst} servers",
            f"relaxed failure QoS: worst-case {relaxed_worst} servers",
        ],
    )
    assert relaxed_worst <= strict_worst
