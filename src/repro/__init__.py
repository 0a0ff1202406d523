"""R-Opus: application performability and QoS in shared resource pools.

A reproduction of *R-Opus: A Composite Framework for Application
Performability and QoS in Shared Resource Pools* (Cherkasova & Rolia,
DSN 2006). The library provides:

* per-application QoS requirements for normal and failure modes
  (:class:`QoSRange`, :class:`DegradedSpec`, :class:`ApplicationQoS`,
  :class:`QoSPolicy`);
* resource-pool class-of-service commitments (:class:`CoSCommitment`,
  :class:`PoolCommitments`);
* the QoS translation onto two classes of service
  (:class:`QoSTranslator`);
* a trace-driven workload placement service with a genetic optimizing
  search (:class:`Consolidator`, :class:`FailurePlanner`);
* the :class:`ROpus` facade wiring it all together;
* an execution engine routing the fan-out stages onto serial or
  process-pool backends with per-stage instrumentation
  (:class:`ExecutionEngine`, :class:`Instrumentation`);
* trace and synthetic-workload substrates (:class:`DemandTrace`,
  :class:`TraceCalendar`, :func:`case_study_ensemble`).

Quickstart::

    from repro import (
        PoolCommitments, QoSPolicy, ROpus, ResourcePool,
        case_study_ensemble, case_study_qos, homogeneous_servers,
    )

    demands = case_study_ensemble(seed=2006)
    framework = ROpus(
        PoolCommitments.of(theta=0.95),
        ResourcePool(homogeneous_servers(12, cpus=16)),
    )
    policy = QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
    )
    plan = framework.plan(demands, policy)
    print(plan.summary())
"""

from repro.core.cos import CoSCommitment, PoolCommitments
from repro.core.degradation import (
    max_cap_reduction_bound,
    new_max_demand,
    realized_cap_reduction,
)
from repro.core.framework import CapacityPlan, ROpus
from repro.core.manager import CapacityManager, CapacityOutlook, RollingPlanReport
from repro.core.partition import breakpoint_fraction, partition_demand
from repro.core.qos import (
    ApplicationQoS,
    DegradedSpec,
    QoSPolicy,
    QoSRange,
    case_study_qos,
)
from repro.core.translation import QoSTranslator, TranslationResult
from repro.engine import (
    ExecutionEngine,
    Instrumentation,
    SerialExecutor,
)
from repro.exceptions import (
    CapacityError,
    CommitmentError,
    ConfigurationError,
    InfeasiblePlacementError,
    PartitionError,
    PlacementError,
    QoSSpecificationError,
    ROpusError,
    SimulationError,
    TraceError,
    TranslationError,
)
from repro.metrics.access import measure_theta
from repro.metrics.compliance import ComplianceReport, check_compliance
from repro.placement.affinity import PlacementConstraints
from repro.placement.consolidation import ConsolidationResult, Consolidator
from repro.placement.failure import (
    FailurePlanner,
    FailureReport,
    FailureSweepPolicy,
    SpareSizingCurve,
)
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import ServerSpec, homogeneous_servers
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.traces.validation import TraceQualityReport, validate_trace
from repro.workloads.ensemble import case_study_ensemble
from repro.workloads.forecast import estimate_weekly_growth, extrapolate_demand
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "AllocationTrace",
    "ApplicationQoS",
    "CapacityError",
    "CapacityManager",
    "CapacityOutlook",
    "CapacityPlan",
    "CoSAllocationPair",
    "CoSCommitment",
    "CommitmentError",
    "ComplianceReport",
    "ConfigurationError",
    "ConsolidationResult",
    "Consolidator",
    "DegradedSpec",
    "DemandTrace",
    "ExecutionEngine",
    "FailurePlanner",
    "FailureReport",
    "FailureSweepPolicy",
    "GeneticSearchConfig",
    "InfeasiblePlacementError",
    "Instrumentation",
    "PartitionError",
    "PlacementConstraints",
    "PlacementError",
    "PoolCommitments",
    "QoSPolicy",
    "QoSRange",
    "QoSSpecificationError",
    "QoSTranslator",
    "ROpus",
    "ROpusError",
    "ResourcePool",
    "RollingPlanReport",
    "SerialExecutor",
    "ServerSpec",
    "SimulationError",
    "SpareSizingCurve",
    "TraceCalendar",
    "TraceError",
    "TraceQualityReport",
    "TranslationError",
    "TranslationResult",
    "WorkloadGenerator",
    "WorkloadSpec",
    "breakpoint_fraction",
    "case_study_ensemble",
    "case_study_qos",
    "check_compliance",
    "estimate_weekly_growth",
    "extrapolate_demand",
    "homogeneous_servers",
    "max_cap_reduction_bound",
    "measure_theta",
    "new_max_demand",
    "partition_demand",
    "realized_cap_reduction",
    "validate_trace",
]
