"""Demand-shape clustering: the hierarchical placement tier's first stage.

A production pool hosts orders of magnitude more workloads than the
paper's 26-application case study; planning them as one monolithic
search scales quadratically. The hierarchical pipeline therefore groups
workloads by *demand-shape similarity* first, sizes sub-pools to the
clusters (:mod:`repro.placement.sharding`), and plans each shard
independently.

The shape features deliberately mirror what drives consolidation
economics ("Design of QoS-aware Provisioning Systems" motivates sizing
sub-pools by demand-shape class):

* **diurnal phase** — where in the day demand concentrates, encoded as
  the demand-weighted circular mean ``(sin, cos)`` over the slot-of-day
  profile, so midnight wraps correctly and one noisy slot cannot flip
  the feature (a flat profile collapses to the origin);
* **peak percentiles** — the p97/peak and p99.9/peak ratios that
  characterise Figure 6's spikers-vs-smooth spectrum;
* **burstiness** — the peak/mean ratio;
* **CoS1/CoS2 split** — the guaranteed-class share of the translated
  allocation, when translations are available (workloads with a large
  guaranteed share multiplex poorly and should be planned together).

Clustering is deterministic and seeded: features are normalised, a tiny
seeded jitter breaks distance ties reproducibly, and the linkage is an
in-repo average-linkage agglomerative merge with index-ordered
tie-breaking (SciPy's ``linkage`` / ``fcluster`` is the oracle its
tests compare against, not a dependency). The same seed and the same
traces produce identical clusters across processes and runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import PlacementError
from repro.traces.trace import DemandTrace
from repro.util.rng import derive_rng

#: Column order of the feature matrix.
FEATURE_NAMES = (
    "phase_sin",
    "phase_cos",
    "p97_over_peak",
    "p999_over_peak",
    "burstiness",
    "cos1_fraction",
)

#: Scale of the seeded tie-breaking jitter added to the normalised
#: feature matrix: far below any real feature difference (features are
#: z-scored, so O(1)), far above float tie territory.
_JITTER_SCALE = 1e-6


@dataclass(frozen=True)
class WorkloadFeatures:
    """Per-workload demand-shape feature vectors.

    ``matrix`` is the z-score-normalised ``(n_workloads, n_features)``
    array the clusterer consumes; ``raw`` keeps the unnormalised values
    for reporting. Rows align with ``names``.
    """

    names: tuple[str, ...]
    matrix: np.ndarray
    raw: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        if self.matrix.shape != (len(self.names), len(self.feature_names)):
            raise PlacementError(
                f"feature matrix shape {self.matrix.shape} does not match "
                f"{len(self.names)} workloads x "
                f"{len(self.feature_names)} features"
            )


@dataclass(frozen=True)
class ClusteringResult:
    """A deterministic partition of workloads into demand-shape clusters.

    ``labels`` aligns with the feature rows (one label per workload) and
    is canonically renumbered: cluster 0 is the cluster of the first
    workload, cluster 1 the next previously-unseen one, and so on.
    ``method`` is ``"agglomerative"``, or ``"trivial"`` when every
    workload is its own cluster.
    """

    names: tuple[str, ...]
    labels: tuple[int, ...]
    n_clusters: int
    method: str
    seed: Optional[int]

    def members(self) -> list[tuple[int, ...]]:
        """Workload row indices per cluster, ordered by cluster label."""
        groups: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for index, label in enumerate(self.labels):
            groups[label].append(index)
        return [tuple(group) for group in groups]

    def label_by_name(self) -> dict[str, int]:
        return dict(zip(self.names, self.labels))


def demand_shape_features(
    demands: Sequence[DemandTrace],
    translations: Optional[Mapping[str, object]] = None,
) -> WorkloadFeatures:
    """Extract the demand-shape feature matrix for an ensemble.

    ``translations`` optionally maps workload name to its
    :class:`~repro.core.translation.TranslationResult`; when given, the
    CoS1 share of the translated allocation becomes a feature (pass
    ``None`` to cluster on raw demand shape alone — the column is then
    a constant and carries no weight after normalisation).
    """
    if not demands:
        raise PlacementError("need at least one workload to featurise")
    names = tuple(demand.name for demand in demands)
    rows = np.empty((len(demands), len(FEATURE_NAMES)), dtype=float)
    for row, demand in enumerate(demands):
        values = demand.values
        calendar = demand.calendar
        by_slot = calendar.slot_of_day_view(values).mean(axis=(0, 1))
        phase_sin, phase_cos = _circular_phase(by_slot)
        peak = float(values.max())
        mean = float(values.mean())
        if peak <= 0.0:
            raise PlacementError(
                f"workload {demand.name!r} has a non-positive peak demand"
            )
        p97, p999 = np.percentile(values, [97.0, 99.9])
        cos1_fraction = 0.5
        if translations is not None:
            result = translations.get(demand.name)
            if result is not None:
                pair = result.pair
                cos1_mass = float(pair.cos1.values.sum())
                total_mass = cos1_mass + float(pair.cos2.values.sum())
                if total_mass > 0.0:
                    cos1_fraction = cos1_mass / total_mass
        rows[row] = (
            phase_sin,
            phase_cos,
            float(p97) / peak,
            float(p999) / peak,
            peak / mean if mean > 0.0 else 1.0,
            cos1_fraction,
        )
    return WorkloadFeatures(names=names, matrix=_normalise(rows), raw=rows)


def _circular_phase(by_slot: np.ndarray) -> tuple[float, float]:
    """Demand-weighted circular mean of the slot-of-day profile.

    Each slot contributes a unit vector on the day circle weighted by
    its mean demand above the profile's base load; the components of
    the resultant are the phase features. Smooth under noise (unlike
    the argmax slot, which a single spiked observation can teleport
    across the day) and the resultant's length encodes diurnal
    concentration: a flat profile collapses to the origin.
    """
    slots = by_slot.shape[0]
    angles = 2.0 * np.pi * np.arange(slots) / slots
    weights = by_slot - by_slot.min()
    total = float(weights.sum())
    if total <= 0.0:
        return 0.0, 0.0
    return (
        float((weights * np.sin(angles)).sum() / total),
        float((weights * np.cos(angles)).sum() / total),
    )


def _normalise(raw: np.ndarray) -> np.ndarray:
    """Z-score each column; constant columns collapse to zero."""
    centred = raw - raw.mean(axis=0)
    scale = raw.std(axis=0)
    scale[scale <= 1e-12] = 1.0
    return centred / scale


def cluster_workloads(
    features: WorkloadFeatures,
    n_clusters: int,
    *,
    seed: Optional[int] = None,
) -> ClusteringResult:
    """Partition workloads into ``n_clusters`` demand-shape clusters.

    Deterministic for a fixed ``(features, n_clusters, seed)``: the
    seed only feeds the tie-breaking jitter, so it decides which of
    several equally-similar groupings is returned, reproducibly.
    """
    n_workloads = len(features.names)
    if not 1 <= n_clusters <= n_workloads:
        raise PlacementError(
            f"n_clusters must be in [1, {n_workloads}], got {n_clusters}"
        )
    rng = derive_rng(seed if seed is None else int(seed))
    matrix = features.matrix
    if seed is not None:
        matrix = matrix + rng.normal(0.0, _JITTER_SCALE, size=matrix.shape)
    if n_clusters == n_workloads:
        labels = list(range(n_workloads))
        method_used = "trivial"
    else:
        labels = _greedy_agglomerative(matrix, n_clusters)
        method_used = "agglomerative"
    return ClusteringResult(
        names=features.names,
        labels=tuple(labels),
        n_clusters=n_clusters,
        method=method_used,
        seed=seed,
    )


def _greedy_agglomerative(matrix: np.ndarray, n_clusters: int) -> list[int]:
    """Average-linkage agglomerative clustering, pure numpy.

    Maintains the full inter-cluster distance matrix and repeatedly
    merges the closest pair (ties broken by lowest index pair, so the
    result is deterministic), updating distances with the
    Lance-Williams average-linkage rule. O(n^2) memory and O(n^3)
    worst-case time — vectorised argmin scans keep it practical to a
    few thousand workloads, which is the regime sharding targets.
    """
    n = matrix.shape[0]
    delta = matrix[:, None, :] - matrix[None, :, :]
    distances = np.sqrt((delta * delta).sum(axis=2))
    np.fill_diagonal(distances, np.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    # members[i] lists original rows currently merged into cluster i.
    members: list[list[int]] = [[index] for index in range(n)]
    for _ in range(n - n_clusters):
        masked = np.where(
            active[:, None] & active[None, :], distances, np.inf
        )
        # argmin on the flattened matrix scans row-major, so among equal
        # minima the lowest (i, j) pair wins — deterministic ties.
        flat = int(np.argmin(masked))
        i, j = divmod(flat, n)
        if i > j:
            i, j = j, i
        # Lance-Williams average linkage: the distance from the merged
        # cluster to any other is the size-weighted mean of the parts'.
        merged_size = sizes[i] + sizes[j]
        distances[i, :] = (
            sizes[i] * distances[i, :] + sizes[j] * distances[j, :]
        ) / merged_size
        distances[:, i] = distances[i, :]
        distances[i, i] = np.inf
        sizes[i] = merged_size
        active[j] = False
        members[i].extend(members[j])
        members[j] = []
    labels = [0] * n
    for label, cluster in enumerate(
        sorted(
            (members[index] for index in range(n) if active[index]),
            key=lambda cluster: cluster[0],
        )
    ):
        for row in cluster:
            labels[row] = label
    return labels


__all__ = [
    "FEATURE_NAMES",
    "ClusteringResult",
    "WorkloadFeatures",
    "cluster_workloads",
    "demand_shape_features",
]
