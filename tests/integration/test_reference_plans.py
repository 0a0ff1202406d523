"""The ``plan_hash`` contract, pinned as literals.

Four tier-1-sized planning problems — the benchmark of record's
``--quick`` shapes (``benchmarks/record/workloads.py``), copied here as
literals so this file does not import the benchmark — planned the way
the benchmark plans them: ``scaled_ensemble(seed=2006)`` on 16-CPU
servers, ``GeneticSearchConfig(seed=2006)``, theta 0.95, tolerance
0.01, the case study's normal / failure QoS policy, a serial engine.
Every bit-identical kernel must produce the recorded ``plan_hash``.

The literals were produced by running exactly this module's
:func:`reference_plan` at the parent commit of the PR that added the
file (186f219, before any other edit of that PR) and printing
``plan.plan_hash()``; all three kernels agreed on every shape. A PR
that only refactors must leave them alone. A PR that legitimately moves
a plan (a new placement algorithm, a policy change) edits the literal
and says so in CHANGES.md.

Required capacities are bisection grid points, so the hashes do not
hang on the last bit of a float sum; a Python / numpy pair that
disagrees with a literal is a finding to report, not one to skip.
"""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.engine import ExecutionEngine
from repro.placement.failure import FailureSweepPolicy
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.workloads.ensemble import scaled_ensemble

SEED = 2006

#: shape name -> (ensemble / pool / mode, recorded ``plan_hash``).
REFERENCE_PLANS = {
    "paper_failover": (
        dict(n_apps=8, weeks=2, slot_minutes=60, servers=6, racks=3),
        "b276e23867b95ac7e41e9ee1eec7b5d0bbf147de1ae64dd843358caa93f46901",
    ),
    "pool_mono": (
        dict(n_apps=26, weeks=1, slot_minutes=60, servers=12),
        "9fc6de05605b6eb7113f1331246845188690f4f5d427846f2d5a4444f216208e",
    ),
    "pool_sharded": (
        dict(n_apps=26, weeks=1, slot_minutes=60, servers=12, sharding="auto"),
        "b1b90d196f63681190d004cf836b5e5bd08c25f26b45bccb78910bf64ffc84f7",
    ),
    "year_long": (
        dict(n_apps=4, weeks=8, slot_minutes=30, servers=4),
        "85e056f8c62f1bb43e51d7964d2125cee8992705d6f27405dbd5f2f7edfe0f13",
    ),
}


def reference_plan(
    kernel, *, n_apps, weeks, slot_minutes, servers, racks=None, sharding="off"
):
    """Plan one shape; racks switch on the server and rack failure sweeps."""
    demands = scaled_ensemble(
        n_apps, seed=SEED, weeks=weeks, slot_minutes=slot_minutes
    )
    policy = QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
    )
    plan_failures = racks is not None
    framework = ROpus(
        PoolCommitments.of(theta=0.95),
        ResourcePool(homogeneous_servers(servers, cpus=16, racks=racks)),
        search_config=GeneticSearchConfig(seed=SEED),
        tolerance=0.01,
        engine=ExecutionEngine.serial(),
        kernel=kernel,
        sharding=sharding,
        cluster_seed=SEED,
        failure_policy=(
            FailureSweepPolicy(scopes=("rack",)) if plan_failures else None
        ),
    )
    return framework.plan(demands, policy, plan_failures=plan_failures)


@pytest.mark.parametrize("kernel", ["batch", "fused", "scalar"])
@pytest.mark.parametrize("shape", sorted(REFERENCE_PLANS))
def test_plan_hash_matches_the_recorded_literal(shape, kernel):
    spec, recorded = REFERENCE_PLANS[shape]
    plan = reference_plan(kernel, **spec)
    assert plan.plan_hash() == recorded
    if "racks" in spec:
        # The hash covers both sweeps, not just the normal plan.
        assert plan.failure_report.cases
        assert plan.domain_reports["rack"].cases
    if spec.get("sharding") == "auto":
        assert plan.sharding is not None
