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
from repro.placement.kernels import _TILE_BYTES
from repro.resources.pool import ResourcePool

Assignment = tuple[int, ...]


def allocation_correlation_matrix(evaluator: PlacementEvaluator) -> np.ndarray:
    """Pairwise Pearson correlations of total allocation series.

    Constant series (zero variance) correlate 0 with everything: they
    neither help nor hurt coincident peaks. No ``(n, T)`` matrix is
    built: the centred series are rebuilt from the evaluator's read-only
    matrices in blocks of as many rows as fit in
    :data:`~repro.placement.kernels._TILE_BYTES` (at least one), and two
    blocks at most are held at once. Each block is built once with its
    own means and norms, then rebuilt, from the stored means, beside
    every later block. The floats are the full-matrix formulas': a
    block's ``mean(axis=1)`` is the same per-row pairwise sum as the
    whole matrix's, each norm is ``np.sqrt(np.add.reduce(row * row))``
    (``np.linalg.norm(centered, axis=1)``'s float, where
    ``np.linalg.norm`` of a lone row is a BLAS dot whose last bits
    differ), and each pair is one dot of two centred rows, the lower
    index first. Those last bits pick servers.
    """
    cos1, cos2 = evaluator.matrices
    n, length = cos1.shape
    size = min(n, max(1, _TILE_BYTES // (8 * max(1, length))))
    blocks = [(start, min(start + size, n)) for start in range(0, n, size)]
    means, norms = np.empty(n), np.empty(n)
    current, earlier = np.empty((size, length)), np.empty((size, length))
    matrix = np.zeros((n, n))
    for index, (start, stop) in enumerate(blocks):
        block = np.add(cos1[start:stop], cos2[start:stop], out=current[: stop - start])
        means[start:stop] = block.mean(axis=1)
        block -= means[start:stop, None]
        norms[start:stop] = [np.sqrt(np.add.reduce(row * row)) for row in block]
        for low, high in blocks[:index]:
            rows = np.add(cos1[low:high], cos2[low:high], out=earlier[: high - low])
            rows -= means[low:high, None]
            _correlate(matrix, norms, rows, low, block, start)
        _correlate(matrix, norms, block, start, block, start)
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _correlate(
    matrix: np.ndarray,
    norms: np.ndarray,
    rows: np.ndarray,
    first_row: int,
    columns: np.ndarray,
    first_column: int,
) -> None:
    """Fill ``matrix`` for each pair of a row of ``rows`` before a row of
    ``columns`` (centred blocks starting at those indices), both ways."""
    for row, centred_row in enumerate(rows, first_row):
        if norms[row] == 0:
            continue
        for column in range(max(row + 1, first_column), first_column + len(columns)):
            if norms[column] == 0:
                continue
            value = float(
                centred_row @ columns[column - first_column]
                / (norms[row] * norms[column])
            )
            matrix[row, column] = value
            matrix[column, row] = value


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
