"""Tests for demand-shape clustering (the hierarchical tier's stage 1)."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlacementError
from repro.placement.clustering import (
    _JITTER_SCALE,
    FEATURE_NAMES,
    ClusteringResult,
    WorkloadFeatures,
    _greedy_agglomerative,
    cluster_workloads,
    demand_shape_features,
)
from repro.placement.sharding import ShardingPolicy
from repro.traces.calendar import TraceCalendar
from repro.util.rng import derive_rng
from repro.workloads.ensemble import scaled_ensemble
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.patterns import batch_window_pattern, business_hours_pattern


def _two_family_demands():
    """Six daytime interactive apps and six midnight batch jobs.

    The families differ in diurnal phase (midday vs midnight demand
    concentration) and burstiness (a 5-hour batch window idles most of
    the day), so any reasonable demand-shape clustering separates them.
    """
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=11)
    specs = [
        WorkloadSpec(
            name=f"day-{i}",
            pattern=business_hours_pattern(),
            peak_cpus=2.0 + 0.1 * i,
            noise_sigma=0.08,
            noise_correlation=0.9,
        )
        for i in range(6)
    ] + [
        WorkloadSpec(
            name=f"night-{i}",
            pattern=batch_window_pattern(window_start=0, window_hours=5),
            peak_cpus=1.5 + 0.1 * i,
            noise_sigma=0.08,
            noise_correlation=0.9,
        )
        for i in range(6)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture(scope="module")
def demands():
    return _two_family_demands()


@pytest.fixture(scope="module")
def features(demands):
    return demand_shape_features(demands)


class TestFeatures:
    def test_matrix_shape_and_names(self, demands, features):
        assert features.matrix.shape == (len(demands), len(FEATURE_NAMES))
        assert features.raw.shape == features.matrix.shape
        assert features.names == tuple(demand.name for demand in demands)

    def test_burstiness_separates_the_families(self, features):
        burstiness = features.raw[:, FEATURE_NAMES.index("burstiness")]
        day = burstiness[:6]
        night = burstiness[6:]
        assert day.max() < night.min()

    def test_phase_separates_the_families(self, features):
        cosine = features.raw[:, FEATURE_NAMES.index("phase_cos")]
        # Daytime demand points away from midnight, batch toward it.
        assert cosine[:6].max() < 0.0
        assert cosine[6:].min() > 0.0

    def test_cos1_fraction_defaults_without_translations(self, features):
        column = features.raw[:, FEATURE_NAMES.index("cos1_fraction")]
        assert np.allclose(column, 0.5)

    def test_normalised_columns_are_centred(self, features):
        assert np.allclose(features.matrix.mean(axis=0), 0.0, atol=1e-9)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(PlacementError):
            demand_shape_features([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PlacementError):
            WorkloadFeatures(
                names=("a", "b"),
                matrix=np.zeros((3, len(FEATURE_NAMES))),
                raw=np.zeros((3, len(FEATURE_NAMES))),
            )


class TestClusterWorkloads:
    def test_families_end_up_in_distinct_clusters(self, features):
        result = cluster_workloads(features, 2, seed=5)
        day_labels = set(result.labels[:6])
        night_labels = set(result.labels[6:])
        assert len(day_labels) == 1
        assert len(night_labels) == 1
        assert day_labels != night_labels

    def test_same_seed_same_clusters(self, features):
        first = cluster_workloads(features, 3, seed=42)
        second = cluster_workloads(features, 3, seed=42)
        assert first.labels == second.labels
        assert first.method == second.method

    def test_labels_are_canonical(self, features):
        result = cluster_workloads(features, 3, seed=42)
        seen: list[int] = []
        for label in result.labels:
            if label not in seen:
                seen.append(label)
        assert seen == sorted(seen)
        assert result.labels[0] == 0

    def test_members_partition_all_workloads(self, features):
        result = cluster_workloads(features, 4, seed=1)
        members = result.members()
        flat = sorted(index for group in members for index in group)
        assert flat == list(range(len(features.names)))
        assert len(members) == 4

    def test_trivial_partition_when_k_equals_n(self, features):
        n = len(features.names)
        result = cluster_workloads(features, n, seed=0)
        assert result.labels == tuple(range(n))
        assert result.method == "trivial"

    def test_agglomerative_fallback_matches_partition_contract(
        self, features
    ):
        result = cluster_workloads(features, 2, seed=5)
        assert result.method == "agglomerative"
        assert set(result.labels) == {0, 1}
        # The in-repo linkage must also separate the two families.
        assert len(set(result.labels[:6])) == 1
        assert len(set(result.labels[6:])) == 1

    def test_out_of_range_k_rejected(self, features):
        with pytest.raises(PlacementError):
            cluster_workloads(features, 0)
        with pytest.raises(PlacementError):
            cluster_workloads(features, len(features.names) + 1)

    def test_label_by_name_round_trips(self, features):
        result = cluster_workloads(features, 2, seed=5)
        by_name = result.label_by_name()
        assert set(by_name) == set(features.names)
        for index, name in enumerate(features.names):
            assert by_name[name] == result.labels[index]


_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src_path!r})
from tests.placement.test_clustering import _two_family_demands
from repro.placement.clustering import cluster_workloads, demand_shape_features

features = demand_shape_features(_two_family_demands())
result = cluster_workloads(features, 3, seed=42)
print(",".join(str(label) for label in result.labels))
"""


class TestCrossProcessDeterminism:
    def test_labels_identical_across_process_boundaries(
        self, features, repo_paths
    ):
        src_path, repo_root = repo_paths
        local = cluster_workloads(features, 3, seed=42)
        script = _SUBPROCESS_SCRIPT.format(src_path=src_path)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=repo_root,
            check=True,
        )
        remote = tuple(
            int(label) for label in completed.stdout.strip().split(",")
        )
        assert remote == local.labels


@pytest.fixture(scope="module")
def repo_paths():
    import repro
    import os

    src_path = os.path.dirname(os.path.dirname(repro.__file__))
    repo_root = os.path.dirname(src_path)
    return src_path, repo_root


@pytest.fixture(scope="module")
def scipy_labels():
    """SciPy's average linkage cut into ``k`` clusters, canonical labels."""
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")

    def labels(matrix, k):
        merged = hierarchy.linkage(matrix, "average")
        # Renumbered by first occurrence, the in-repo linkage's order.
        first_seen = {}
        return tuple(
            first_seen.setdefault(int(label), len(first_seen))
            for label in hierarchy.fcluster(merged, k, "maxclust")
        )

    return labels


def _jittered(matrix, seed):
    """The matrix :func:`cluster_workloads` hands the linkage for ``seed``."""
    return matrix + derive_rng(seed).normal(0.0, _JITTER_SCALE, size=matrix.shape)


class TestScipyOracle:
    """SciPy's ``linkage`` / ``fcluster`` is the reference the in-repo
    average linkage is held to — it was the production path wherever
    SciPy happened to be importable, and ``pool_sharded`` was measured
    through it."""

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_two_family_fixture(self, features, scipy_labels, k):
        matrix = _jittered(features.matrix, 42)
        assert tuple(_greedy_agglomerative(matrix, k)) == scipy_labels(matrix, k)

    @pytest.mark.parametrize("family", [2006, 2007])
    def test_benchmark_ensembles_at_the_auto_shard_count(
        self, scipy_labels, family
    ):
        """``pool_sharded``'s inputs: 156 apps on 72 servers, clustered
        with the family as the seed."""
        demands = scaled_ensemble(156, seed=family, weeks=1, slot_minutes=30)
        shards = ShardingPolicy("auto").resolved_shards(len(demands), 72)
        features = demand_shape_features(demands)
        assert cluster_workloads(
            features, shards, seed=family
        ).labels == scipy_labels(_jittered(features.matrix, family), shards)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_jittered_grid_matrices(self, scipy_labels, data):
        """Grid points tie in distance by the dozen; the seeded jitter
        is what makes the dendrogram unique, as in production."""
        n = data.draw(st.integers(2, 40), label="n")
        k = data.draw(st.integers(1, n - 1), label="k")
        grid = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=n,
                max_size=n,
            ),
            label="grid",
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        matrix = _jittered(np.asarray(grid, dtype=float), seed)
        assert tuple(_greedy_agglomerative(matrix, k)) == scipy_labels(matrix, k)


class TestResultValidation:
    def test_clustering_result_is_frozen_data(self):
        result = ClusteringResult(
            names=("a", "b"),
            labels=(0, 1),
            n_clusters=2,
            method="trivial",
            seed=None,
        )
        assert result.members() == [(0,), (1,)]
