"""Resource-pool substrate: servers, pools, the slot-level scheduler.

Models the execution environment R-Opus manages: a pool of multi-CPU
servers (:class:`ServerSpec`, :class:`ResourcePool`) and a slot-level
capacity scheduler that grants CoS1 before CoS2
(:class:`CapacityScheduler`) — the independent reference the trace
simulator is tested against.
"""

from repro.resources.pool import ResourcePool
from repro.resources.scheduler import CapacityScheduler, SchedulerResult
from repro.resources.server import ServerSpec, homogeneous_servers

__all__ = [
    "CapacityScheduler",
    "ResourcePool",
    "SchedulerResult",
    "ServerSpec",
    "homogeneous_servers",
]
