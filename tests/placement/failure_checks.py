"""Checks shared by the failure-planning suites.

What a what-if must satisfy however it was reached (repaired in place
or re-planned by the fallback search), re-derived from the demand
traces through the scalar reference only.
"""

from repro.placement import failure
from repro.placement.required_capacity import required_capacity

TOLERANCE = 0.01


def _require(condition, *context):
    """``assert`` for a helper module (pytest rewrites only test files)."""
    if not condition:
        raise AssertionError(context)


def case_view(report):
    """Everything a sweep decided, comparable across planners."""
    return [
        (
            case.label,
            case.feasible,
            case.affected_workloads,
            None if case.result is None else dict(case.result.assignment),
            None
            if case.result is None
            else dict(case.result.required_by_server),
        )
        for case in report.cases
    ]


def feasible_labels(report):
    return {case.label for case in report.cases if case.feasible}


def assert_stays_put(case, normal):
    """Only what the fault displaced moved: every workload whose server
    neither failed nor degraded is still on that server."""
    faulted = set(case.failed_servers) | {name for name, _ in case.degraded}
    for server, names in normal.assignment.items():
        if server in faulted:
            continue
        for name in names:
            _require(
                case.result.server_of(name) == server,
                case.label, name, "left", server,
            )


def assert_scalar_oracle_agrees(
    case, demands, policy, pool, translator, *, relax_all
):
    """Every workload placed once, on a survivor, and every used server
    re-solved by the scalar search on the case's QoS mix fits its
    (scaled) limit at the capacity the case reports."""
    demand_by_name = {demand.name: demand for demand in demands}
    scaled = dict(case.degraded)
    placed = sorted(
        name for names in case.result.assignment.values() for name in names
    )
    _require(placed == sorted(demand_by_name), case.label, "placed", placed)
    for server, names in case.result.assignment.items():
        _require(
            server not in case.failed_servers, case.label, "hosts on", server
        )
        limit = pool[server].capacity_of("cpu") * scaled.get(server, 1.0)
        pairs = [
            translator.translate(
                demand_by_name[name],
                policy.mode(
                    failure_mode=relax_all or name in case.affected_workloads
                ),
            ).pair
            for name in names
        ]
        oracle = required_capacity(
            pairs,
            capacity_limit=limit,
            commitment=translator.commitments.cos2,
            tolerance=TOLERANCE,
        )
        _require(oracle.fits, case.label, server, "does not fit", limit)
        claimed = case.result.required_by_server[server]
        _require(
            abs(oracle.required_capacity - claimed) <= TOLERANCE + 1e-9,
            case.label, server, claimed, "scalar", oracle.required_capacity,
        )


def repair_never_finds_a_home(monkeypatch):
    """Make every what-if take the fallback: the parent's full search."""
    monkeypatch.setattr(
        failure, "_repair_assignment", lambda *args, **kwargs: None
    )
