"""The consolidation objective (Section VI-B).

An assignment's score is a sum over the pool's servers:

* ``+1`` for a server that hosts no workloads (freed capacity is the
  whole point of consolidation);
* ``f(U) = U^(2Z)`` for a used server with required capacity
  ``R <= L``, where ``U = R / L`` and ``Z`` is the server's CPU count —
  the square exaggerates high utilizations in a least-squares sense and
  the ``Z`` exponent demands that bigger servers run hotter (motivated by
  the ``1 / (1 - U^Z)`` open-network response-time estimate);
* ``-N`` for an over-booked server (``R > L``), where ``N`` is the
  number of workloads assigned to it — infeasible servers are penalised
  in proportion to how much work would suffer.

Anti-affinity constraints (see :mod:`repro.placement.affinity`) price
each co-located pair of constrained workloads with
:func:`affinity_penalty` — a soft penalty subtracted from the score, so
the search steers clear of shared failure domains without ever calling
a capacity-feasible assignment infeasible.
"""

from __future__ import annotations

from repro.exceptions import PlacementError
from repro.resources.server import ServerSpec


def utilization_value(utilization: float, cpus: int) -> float:
    """``f(U) = U^(2Z)`` for one used, feasible server."""
    if not 0.0 <= utilization <= 1.0:
        raise PlacementError(
            f"utilization must be in [0, 1], got {utilization}"
        )
    if cpus < 1:
        raise PlacementError(f"cpus must be >= 1, got {cpus}")
    return float(utilization ** (2 * cpus))


def server_score(
    server: ServerSpec,
    n_workloads: int,
    required: float | None,
    attribute: str = "cpu",
) -> float:
    """Score one server's contribution to the assignment.

    ``required`` is the server's required capacity from the simulator
    (``None`` or ``inf`` means the workloads do not fit at any capacity
    up to the limit).
    """
    if n_workloads < 0:
        raise PlacementError(f"n_workloads must be >= 0, got {n_workloads}")
    if n_workloads == 0:
        return 1.0
    limit = server.capacity_of(attribute)
    if required is None or required > limit or required != required:
        return -float(n_workloads)
    return utilization_value(min(1.0, required / limit), server.cpus)


def affinity_penalty(pair_count: int, weight: float) -> float:
    """The objective price of ``pair_count`` co-located constrained pairs.

    Linear in the pair count so splitting a three-way co-location into
    a two-way one is still rewarded; ``weight`` should exceed the
    ``+1`` empty-server reward so a violation is never bought with a
    freed server.
    """
    if pair_count < 0:
        raise PlacementError(f"pair_count must be >= 0, got {pair_count}")
    if weight <= 0.0:
        raise PlacementError(f"weight must be > 0, got {weight}")
    return float(weight * pair_count)

