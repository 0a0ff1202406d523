"""Kernel-selection equivalence across the planning pipeline.

The ``kernel`` knob changes how required capacity is computed, never
what plan comes out:

* ``"batch"`` is bit-identical to ``"scalar"`` — same assignments, same
  per-server required capacities;
* ``"analytic"`` may land on a different point of the same tolerance
  interval, so plans must agree structurally and every per-server
  required capacity must stay within the search tolerance;
* the failure sweep's shared scratch (``share_sweep_cache``) memoises
  pure functions and must be invisible in the results;
* the benchmark ensembles are all theta-bound, so a bursty ensemble
  under a loose theta and a one-slot deadline pins the same
  ``plan_hash`` across ``"batch"``, ``"fused"`` and ``"scalar"`` where
  the *deadline* gate decides most rows — sharded, with failure
  sweeps, and for a lone single-workload search.
"""

import numpy as np
import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine import ExecutionEngine
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.required_capacity import required_capacity
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.placement.failure_checks import case_view

TOLERANCE = 0.01
FAST_SEARCH = GeneticSearchConfig(
    seed=11, max_generations=6, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def demands():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=17)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.5 * i) for i in range(5)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture(scope="module")
def policy():
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
    )


def plan_with(demands, policy, **kwargs):
    framework = ROpus(
        PoolCommitments.of(theta=0.9),
        ResourcePool(homogeneous_servers(5, cpus=16)),
        search_config=FAST_SEARCH,
        engine=ExecutionEngine.serial(),
        tolerance=TOLERANCE,
        **kwargs,
    )
    return framework.plan(demands, policy, plan_failures=True)


def failure_view(report):
    return [
        (case.label, case.feasible, case.servers_used)
        for case in report.cases
    ]


class TestKernelEquivalence:
    def test_batch_is_bit_identical_to_scalar(self, demands, policy):
        scalar = plan_with(
            demands, policy, kernel="scalar", share_sweep_cache=False
        )
        batch = plan_with(
            demands, policy, kernel="batch", share_sweep_cache=False
        )
        assert dict(scalar.consolidation.assignment) == dict(
            batch.consolidation.assignment
        )
        assert dict(scalar.consolidation.required_by_server) == dict(
            batch.consolidation.required_by_server
        )
        assert failure_view(scalar.failure_report) == failure_view(
            batch.failure_report
        )

    def test_analytic_matches_scalar_within_tolerance(self, demands, policy):
        scalar = plan_with(
            demands, policy, kernel="scalar", share_sweep_cache=False
        )
        analytic = plan_with(
            demands, policy, kernel="analytic", share_sweep_cache=False
        )
        assert dict(scalar.consolidation.assignment) == dict(
            analytic.consolidation.assignment
        )
        scalar_required = dict(scalar.consolidation.required_by_server)
        analytic_required = dict(analytic.consolidation.required_by_server)
        assert set(scalar_required) == set(analytic_required)
        for server, required in scalar_required.items():
            assert abs(analytic_required[server] - required) <= (
                TOLERANCE + 1e-9
            )
        assert failure_view(scalar.failure_report) == failure_view(
            analytic.failure_report
        )

    def test_sweep_cache_sharing_is_invisible(self, demands, policy):
        cold = plan_with(
            demands, policy, kernel="batch", share_sweep_cache=False
        )
        shared = plan_with(
            demands, policy, kernel="batch", share_sweep_cache=True
        )
        assert dict(cold.consolidation.assignment) == dict(
            shared.consolidation.assignment
        )
        assert dict(cold.consolidation.required_by_server) == dict(
            shared.consolidation.required_by_server
        )
        assert case_view(cold.failure_report) == case_view(
            shared.failure_report
        )
        assert cold.plan_hash() == shared.plan_hash()


BIT_IDENTICAL_KERNELS = ("batch", "fused", "scalar")


@pytest.fixture(scope="module")
def bursty_demands():
    """Low base load with a few 4-6 slot bursts per workload.

    A burst longer than the deadline drains late unless capacity sits
    close to the burst level — well above what theta = 0.5 asks for —
    so the deadline is the binding constraint on every server.
    """
    calendar = TraceCalendar(weeks=2, slot_minutes=60)
    rng = np.random.default_rng(5)
    length = calendar.n_observations
    demands = []
    for index in range(6):
        values = np.full(length, 0.2 + 0.05 * index)
        for start in rng.choice(length - 8, size=6, replace=False):
            values[start : start + rng.integers(4, 7)] += rng.uniform(2.0, 5.0)
        demands.append(DemandTrace(f"bursty{index}", values, calendar))
    return demands


def deadline_bound_plan(demands, policy, kernel, *, servers, **kwargs):
    framework = ROpus(
        PoolCommitments.of(theta=0.5, deadline_minutes=60.0),
        ResourcePool(homogeneous_servers(servers, cpus=16)),
        search_config=FAST_SEARCH,
        engine=ExecutionEngine.serial(),
        tolerance=TOLERANCE,
        kernel=kernel,
        **kwargs,
    )
    return framework.plan(demands, policy, plan_failures=servers > 1)


class TestDeadlineBoundEquivalence:
    @pytest.mark.parametrize("sharding", ["off", 2])
    def test_plan_hash_identical_across_kernels(
        self, bursty_demands, policy, sharding
    ):
        plans = {
            kernel: deadline_bound_plan(
                bursty_demands,
                policy,
                kernel,
                servers=4,
                sharding=sharding,
                cluster_seed=3,
            )
            for kernel in BIT_IDENTICAL_KERNELS
        }
        assert len({plan.plan_hash() for plan in plans.values()}) == 1
        assert plans["batch"].failure_report is not None
        # The premise: most decisions got past the peak and theta gates
        # and were settled by the deadline check.
        counters = plans["batch"].summary()["counters"]
        assert counters["kernel.row_evaluations"] > 0
        assert (
            counters["kernel.backlog_rows"]
            > 0.5 * counters["kernel.row_evaluations"]
        )

    def test_deadline_is_the_binding_constraint(self, bursty_demands, policy):
        plan = deadline_bound_plan(bursty_demands, policy, "batch", servers=4)
        framework = ROpus(
            PoolCommitments.of(theta=0.5, deadline_minutes=60.0),
            ResourcePool(homogeneous_servers(4, cpus=16)),
        )
        pairs = [
            result.pair
            for result in framework.translate(bursty_demands, policy).values()
        ]
        by_name = {pair.name: pair for pair in pairs}
        calendar = pairs[0].calendar
        for server, names in plan.consolidation.assignment.items():
            if not names:
                continue
            result = required_capacity(
                [by_name[name] for name in names],
                16.0,
                framework.commitments.cos2,
                tolerance=TOLERANCE,
            )
            assert result.required_capacity == dict(
                plan.consolidation.required_by_server
            )[server]
            # Theta has slack at the answer; the deadline has none.
            assert result.report.theta_measured > 0.5 + 0.05
            assert result.report.max_deferred_slots == (
                framework.commitments.cos2.deadline_slots(calendar)
            )

    def test_lone_search_goes_through_the_batch_solver(
        self, bursty_demands, policy
    ):
        """A single-workload server: one search, no batch to join."""
        plans = {
            kernel: deadline_bound_plan(
                bursty_demands[:1], policy, kernel, servers=1
            )
            for kernel in BIT_IDENTICAL_KERNELS
        }
        assert len({plan.plan_hash() for plan in plans.values()}) == 1
        assert plans["batch"].servers_used == 1
        counters = plans["batch"].summary()["counters"]
        assert counters["kernel.rows"] >= 1
        assert counters["kernel.calls"] >= 1
        assert counters["kernel.bracket_iterations"] >= 1
