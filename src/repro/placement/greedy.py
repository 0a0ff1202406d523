"""Greedy placement baselines.

The paper compares its genetic search against greedy algorithms
(Section VIII). Two classics are provided, both driven by the same
trace-accurate feasibility test as the genetic search (a workload set
fits on a server iff its required capacity is within the server's
limit):

* **first-fit decreasing** — workloads sorted by peak allocation, each
  placed on the first server that still fits it;
* **best-fit decreasing** — each workload placed on the feasible server
  whose required capacity would become largest (tightest fit), packing
  servers hot before opening new ones.

:func:`_greedy_place` is the one placement loop: the two baselines here,
:func:`repro.placement.correlation.correlation_aware_seed` and the
failure what-ifs' repair (:func:`repro.placement.failure._repair_assignment`,
which starts it from the normal plan's survivors with
:func:`least_slack_choice`) differ only in the ``choose`` policy and the
starting assignment they hand it, and every step of the loop reaches the
kernel as one batch. Handed several policies, it advances them in
lock-step — the genetic search's three seeds share each step's batch
(:meth:`repro.placement.consolidation.Consolidator.consolidate`).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import InfeasiblePlacementError
from repro.placement.evaluation import PlacementEvaluator, Steps, drive
from repro.resources.pool import ResourcePool

Assignment = tuple[int, ...]


#: A placement policy: ``(workload_index, feasible, groups) -> server``,
#: where ``feasible`` lists the ``(server_index, required_capacity)``
#: candidates that fit, in server order.
Choose = Callable[[int, list[tuple[int, float]], dict[int, list[int]]], int]


def first_fit_choice(
    workload_index: int,
    feasible: list[tuple[int, float]],
    current_groups: dict[int, list[int]],
) -> int:
    """The first fitting used server."""
    return feasible[0][0]


def best_fit_choice(
    workload_index: int,
    feasible: list[tuple[int, float]],
    current_groups: dict[int, list[int]],
) -> int:
    """The fitting used server whose required capacity becomes largest."""
    return max(feasible, key=lambda item: item[1])[0]


def least_slack_choice(limits: Sequence[float]) -> Choose:
    """The repair's policy: the fitting used server left with the least
    ``limit - required``, given every server's limit.

    On equal limits this is :func:`best_fit_choice`; on a degraded or
    mixed pool a smaller server can be the tighter fit at a lower
    required capacity, so the two differ.
    """

    def choose(
        workload_index: int,
        feasible: list[tuple[int, float]],
        current_groups: dict[int, list[int]],
    ) -> int:
        # ``min`` keeps the first (lowest-index) server among equal slacks.
        return min(feasible, key=lambda item: limits[item[0]] - item[1])[0]

    return choose


def first_fit_decreasing(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    attribute: str = "cpu",
) -> Assignment:
    """Place each workload (largest peak first) on the first fitting server."""
    return placed(
        *drive(_greedy_place(evaluator, pool, (first_fit_choice,), attribute))
    )


def best_fit_decreasing(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    attribute: str = "cpu",
) -> Assignment:
    """Place each workload on the feasible server it fills tightest."""
    return placed(
        *drive(_greedy_place(evaluator, pool, (best_fit_choice,), attribute))
    )


def placed(outcome: Assignment | InfeasiblePlacementError) -> Assignment:
    """One policy's outcome of :func:`_greedy_place`: its assignment, or
    its error raised."""
    if isinstance(outcome, InfeasiblePlacementError):
        raise outcome
    return outcome


def _greedy_place(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    policies: Sequence[Choose],
    attribute: str,
    start: Sequence[int] | None = None,
) -> Steps[list[Assignment | InfeasiblePlacementError]]:
    """Shared greedy skeleton, one placement per policy, in lock-step.

    ``start`` is a starting assignment, a server index per workload with
    −1 meaning "to place" (by default every workload is): its placed
    workloads stay put and only the others are placed.
    Workloads are taken in decreasing order of peak total allocation.
    For each, every *already-used* server is tested first; if none fits,
    the next unused server is opened. A policy picks among the feasible
    used servers given the workload's index, the
    ``(server_index, required_capacity)`` candidates in server order and
    its current groups.

    Every policy places the same workload at the same step, so one
    ``evaluate_groups`` batch per workload carries the candidates of
    every live policy (identical candidates are solved once). A policy
    that runs out of servers stops there: its outcome is the
    :class:`InfeasiblePlacementError` it would have raised alone, and
    the others carry on. Returns one outcome per policy, in order; each
    is what the policy placed alone would return or raise. A lock-step
    search (:data:`~repro.placement.evaluation.Steps`): run it with
    :func:`~repro.placement.evaluation.drive`.
    """
    servers = list(pool.servers)
    order = np.argsort(-evaluator.peak_allocations(), kind="stable")
    if start is None:
        start = [-1] * evaluator.n_workloads
    residents: dict[int, list[int]] = {}
    for workload_index, server_index in enumerate(start):
        if server_index >= 0:
            residents.setdefault(server_index, []).append(workload_index)
    groups = [
        {server: list(group) for server, group in residents.items()}
        for _ in policies
    ]
    assignments = [list(start) for _ in policies]
    errors: dict[int, InfeasiblePlacementError] = {}
    live = list(range(len(policies)))

    for workload_index in (int(index) for index in order if start[index] < 0):
        # All of one workload's candidate (used server + workload)
        # subsets are independent searches: one simultaneous bisection
        # instead of a Python loop per server and policy.
        candidates = [
            (policy, server_index)
            for policy in live
            for server_index in sorted(groups[policy])
        ]
        evaluations = yield from evaluator.ask(
            [
                (
                    servers[server_index].capacity_of(attribute),
                    groups[policy][server_index] + [workload_index],
                )
                for policy, server_index in candidates
            ]
        )
        feasible: dict[int, list[tuple[int, float]]] = {
            policy: [] for policy in live
        }
        for (policy, server_index), evaluation in zip(candidates, evaluations):
            if evaluation.fits:
                feasible[policy].append((server_index, evaluation.required))
        for policy in live:
            try:
                if feasible[policy]:
                    target = policies[policy](
                        workload_index, feasible[policy], groups[policy]
                    )
                else:
                    target = yield from _open_new_server(
                        evaluator,
                        servers,
                        groups[policy],
                        workload_index,
                        attribute,
                    )
            except InfeasiblePlacementError as error:
                errors[policy] = error
                continue
            groups[policy].setdefault(target, []).append(workload_index)
            assignments[policy][workload_index] = target
        live = [policy for policy in live if policy not in errors]
        if not live:
            break

    return [
        errors[policy] if policy in errors else tuple(assignments[policy])
        for policy in range(len(policies))
    ]


def _open_new_server(
    evaluator: PlacementEvaluator,
    servers: Sequence,
    groups: dict[int, list[int]],
    workload_index: int,
    attribute: str,
) -> Steps[int]:
    for server_index, server in enumerate(servers):
        if server_index in groups:
            continue
        (evaluation,) = yield from evaluator.ask(
            [(server.capacity_of(attribute), [workload_index])]
        )
        if evaluation.fits:
            return server_index
    raise InfeasiblePlacementError(
        f"workload {evaluator.names[workload_index]!r} fits on no remaining "
        "server; the pool is too small or the workload exceeds every "
        "server's capacity"
    )
