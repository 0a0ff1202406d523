"""The ``plan_hash`` contract, pinned as literals.

Four tier-1-sized planning problems — the benchmark of record's
``--quick`` shapes (``benchmarks/record/workloads.py``), copied here as
literals so this file does not import the benchmark — planned the way
the benchmark plans them: ``scaled_ensemble(seed=2006)`` on 16-CPU
servers, ``GeneticSearchConfig(seed=2006)``, theta 0.95, tolerance
0.01, the case study's normal / failure QoS policy, a serial engine.
Every bit-identical kernel must produce the recorded ``plan_hash``.

Two ``failure_scopes_*`` shapes add what those four never reach: the
k-subset sweeps (global and within-rack, exhaustive and sampled), the
degraded-server sweep and the spare-sizing curve (:data:`WIDE_SWEEP`),
once on a pool too tight to repair and once on one with room.

The literals were produced by running exactly this module's
:func:`reference_plan` at the parent commit of the PR that added them
(186f219 for the four quick shapes, 462a1b8 for the two
``failure_scopes_*`` ones, before any other edit of that PR) and
printing ``plan.plan_hash()``; all three kernels agreed on every shape.
A PR that only refactors must leave them alone. A PR that legitimately
moves a plan (a new placement algorithm, a policy change) edits the
literal and says so in CHANGES.md.

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

#: Every scope-spec family in one policy, capped so both branches of
#: the k-subset draw (exhaustive / seeded sample) run at tier-1 size.
WIDE_SWEEP = dict(
    scopes=("rack", "server:2", "rack:2"),
    degraded_factor=0.5,
    spare_curve=True,
    max_spares=2,
    max_cases=4,
    sample_seed=SEED,
)

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
    # Every server used: no what-if repairs, ``server:2`` is sampled and
    # ``rack:2`` exhaustive, the curve needs 1 spare (server), 2 (rack).
    "failure_scopes_tight": (
        dict(
            n_apps=12, weeks=2, slot_minutes=60, servers=6, racks=3,
            sweep=WIDE_SWEEP,
        ),
        "174a14320fd5239994859de10551dec8611c679f5190b7b37d78f3442604b73c",
    ),
    # Three idle servers: every what-if repairs, both k-subset sweeps
    # are sampled, no spares needed.
    "failure_scopes_roomy": (
        dict(
            n_apps=16, weeks=2, slot_minutes=60, servers=9, racks=3,
            sweep=WIDE_SWEEP,
        ),
        "ace8dfdaebb2c6739344e0f84da38c410b9d0645fcc479bf16040625d1436f99",
    ),
}


def reference_plan(
    kernel,
    *,
    n_apps,
    weeks,
    slot_minutes,
    servers,
    racks=None,
    sharding="off",
    sweep=None,
):
    """Plan one shape; racks switch on the failure sweeps of ``sweep``."""
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
            FailureSweepPolicy(**(sweep or {"scopes": ("rack",)}))
            if plan_failures
            else None
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
    if "sweep" in spec:
        assert set(plan.domain_reports) == {
            "rack", "server:2", "rack:2", "degraded:server@0.5"
        }
        assert all(report.cases for report in plan.domain_reports.values())
        assert plan.spare_curve is not None
    if spec.get("sharding") == "auto":
        assert plan.sharding is not None
