"""Correlation-aware placement seeding (flagged in Section VIII).

The paper's related-work discussion notes that "heuristic search
approaches that also take into account correlations in resource demands
among workloads may also be worth exploring". Two workloads whose peaks
coincide pack badly; anti-correlated workloads (a day-shift web tier and
a nightly batch job) share a server almost for free.

This module provides:

* :func:`allocation_correlation_matrix` — pairwise Pearson correlation
  of total allocation request series;
* :func:`correlation_aware_seed` — a greedy assignment that orders
  workloads by peak and places each on the used server whose current
  occupants it is *least* correlated with (among feasible servers),
  opening a new server only when none fits. The placement loop itself
  is :func:`repro.placement.greedy._greedy_place`; this module only
  supplies the matrix and the ``choose`` policy
  (:func:`least_correlated_choice`).

The seed plugs into the genetic search via ``extra_seeds``; the ablation
benchmark measures what the correlation signal buys over plain
first-fit ordering.
"""

from __future__ import annotations

import numpy as np

from repro.placement.evaluation import PlacementEvaluator, drive
from repro.placement.greedy import Choose, _greedy_place, placed
from repro.resources.pool import ResourcePool

Assignment = tuple[int, ...]


def allocation_correlation_matrix(evaluator: PlacementEvaluator) -> np.ndarray:
    """Pairwise Pearson correlations of total allocation series.

    Constant series (zero variance) correlate 0 with everything: they
    neither help nor hurt coincident peaks. The series are centred in
    place and each norm is taken a row at a time, so the only ``(n, T)``
    matrix is the fresh one ``total_allocations`` returns. Each norm is
    ``np.linalg.norm(centered, axis=1)``'s float: the same pairwise sum
    of squares. ``np.linalg.norm`` of a lone row is a BLAS dot whose last
    bits differ, and those bits pick servers.
    """
    centered = evaluator.total_allocations()
    n = centered.shape[0]
    centered -= centered.mean(axis=1, keepdims=True)
    norms = np.array([np.sqrt(np.add.reduce(row * row)) for row in centered])
    matrix = np.zeros((n, n))
    for row in range(n):
        if norms[row] == 0:
            continue
        for column in range(row + 1, n):
            if norms[column] == 0:
                continue
            value = float(
                centered[row] @ centered[column] / (norms[row] * norms[column])
            )
            matrix[row, column] = value
            matrix[column, row] = value
    np.fill_diagonal(matrix, 1.0)
    return matrix


def least_correlated_choice(evaluator: PlacementEvaluator) -> Choose:
    """The correlation seed's policy over ``evaluator``'s workloads."""
    correlation = allocation_correlation_matrix(evaluator)

    def choose(
        workload_index: int,
        feasible: list[tuple[int, float]],
        current_groups: dict[int, list[int]],
    ) -> int:
        # Least mean correlation with the occupants; ``min`` keeps the
        # first (lowest-index) server among equal means.
        return min(
            feasible,
            key=lambda item: correlation[
                workload_index, current_groups[item[0]]
            ].mean(),
        )[0]

    return choose


def correlation_aware_seed(
    evaluator: PlacementEvaluator,
    pool: ResourcePool,
    attribute: str = "cpu",
) -> Assignment:
    """Greedy placement preferring the least-correlated feasible server."""
    policy = least_correlated_choice(evaluator)
    return placed(*drive(_greedy_place(evaluator, pool, (policy,), attribute)))
