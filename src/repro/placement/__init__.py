"""Workload placement service (Section VI).

Components:

* :mod:`repro.placement.simulator` — replay aggregate per-CoS allocation
  traces against one server's capacity and measure the resource access
  CoS statistics (theta and the satisfaction deadline);
* :mod:`repro.placement.required_capacity` — binary search for the
  smallest capacity satisfying the commitments;
* :mod:`repro.placement.objective` — the consolidation score;
* :mod:`repro.placement.genetic` — the genetic optimizing search;
* :mod:`repro.placement.greedy` — the greedy baseline placements;
* :mod:`repro.placement.consolidation` — the end-to-end consolidation
  exercise;
* :mod:`repro.placement.failure` — failure what-if planning: single
  servers, correlated domains (rack/zone loss), degraded servers, and
  the spare-sizing search;
* :mod:`repro.placement.affinity` — anti-affinity constraints keeping a
  workload's capacity and failover target in distinct failure domains;
* :mod:`repro.placement.clustering` / :mod:`repro.placement.sharding` —
  the hierarchical tier: demand-shape clustering, pool sharding,
  parallel per-shard planning, and cross-shard refinement.
"""

from repro.placement.clustering import (
    ClusteringResult,
    WorkloadFeatures,
    cluster_workloads,
    demand_shape_features,
)
from repro.placement.consolidation import ConsolidationResult, Consolidator
from repro.placement.correlation import (
    allocation_correlation_matrix,
    correlation_aware_seed,
)
from repro.placement.affinity import (
    AffinityViolation,
    PlacementConstraints,
    find_violations,
    repair_assignment,
)
from repro.placement.failure import (
    MAX_EXHAUSTIVE_CASES,
    FailurePlanner,
    FailureReport,
    FailureSweepPolicy,
    FaultScenario,
    SparePoint,
    SpareSizingCurve,
    parse_scope,
)
from repro.placement.genetic import GeneticPlacementSearch, GeneticSearchConfig
from repro.placement.greedy import best_fit_decreasing, first_fit_decreasing
from repro.placement.objective import server_score
from repro.placement.required_capacity import required_capacity
from repro.placement.sharding import (
    HierarchicalPlanner,
    ShardedPlacementResult,
    ShardingPolicy,
    pair_shape_features,
    partition_pool,
)
from repro.placement.simulator import AccessReport, SingleServerSimulator

__all__ = [
    "AccessReport",
    "AffinityViolation",
    "ClusteringResult",
    "ConsolidationResult",
    "Consolidator",
    "FailurePlanner",
    "FailureReport",
    "FailureSweepPolicy",
    "FaultScenario",
    "MAX_EXHAUSTIVE_CASES",
    "PlacementConstraints",
    "SparePoint",
    "SpareSizingCurve",
    "GeneticPlacementSearch",
    "GeneticSearchConfig",
    "HierarchicalPlanner",
    "ShardedPlacementResult",
    "ShardingPolicy",
    "SingleServerSimulator",
    "WorkloadFeatures",
    "allocation_correlation_matrix",
    "cluster_workloads",
    "demand_shape_features",
    "pair_shape_features",
    "partition_pool",
    "best_fit_decreasing",
    "correlation_aware_seed",
    "find_violations",
    "first_fit_decreasing",
    "parse_scope",
    "repair_assignment",
    "required_capacity",
    "server_score",
]
