"""Slot-level two-priority capacity scheduler.

This is the reference model of how a server's workload manager divides
capacity among its containers each scheduling interval (Section II and
VI-A of the paper):

1. higher-priority (CoS1) allocation requests are granted first;
2. the remaining capacity is granted to lower-priority (CoS2) requests;
3. CoS2 demand that cannot be granted immediately is carried forward as a
   backlog and drained, oldest first, as capacity frees up — the CoS
   constraint requires the backlog to drain within the deadline ``s``.

Within a priority class, when requests exceed what can be granted, the
scheduler shares proportionally to each container's request (a fluid
approximation of a proportional-share scheduler running at sub-second
time slices).

The workload placement service uses a vectorised aggregate equivalent
(:mod:`repro.placement.simulator`) for speed; this model keeps per-
container detail for compliance analysis and is the oracle the simulator
is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.traces.allocation import CoSAllocationPair, allocation_matrices

_EPSILON = 1e-9


@dataclass
class SchedulerResult:
    """Outcome of replaying workloads against one server's capacity.

    Arrays are shaped ``(n_workloads, n_slots)``; row order matches the
    input pairs.
    """

    workload_names: list[str]
    capacity: float
    cos1_requested: np.ndarray
    cos2_requested: np.ndarray
    cos1_granted: np.ndarray
    cos2_granted: np.ndarray
    max_backlog_age: np.ndarray
    overbooked_slots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_slots(self) -> int:
        return self.cos1_requested.shape[1]

    def granted_total(self) -> np.ndarray:
        """Per-workload total granted capacity per slot."""
        return self.cos1_granted + self.cos2_granted

    def cos2_satisfaction_ratio(self) -> float:
        """Fraction of aggregate CoS2 request volume granted on request."""
        requested = float(self.cos2_requested.sum())
        if requested == 0:
            return 1.0
        return float(self.cos2_granted_on_request().sum()) / requested

    def cos2_granted_on_request(self) -> np.ndarray:
        """CoS2 grants that served same-slot requests (not backlog drain)."""
        return np.minimum(self.cos2_granted, self.cos2_requested)

    def worst_backlog_age(self) -> int:
        """Largest number of slots any CoS2 demand waited before service."""
        if self.max_backlog_age.size == 0:
            return 0
        return int(self.max_backlog_age.max())

    def meets_deadline(self, deadline_slots: int) -> bool:
        """True when all deferred CoS2 demand drained within the deadline."""
        return self.worst_backlog_age() <= deadline_slots


class CapacityScheduler:
    """Replay per-CoS allocation requests against a fixed capacity."""

    def __init__(self, capacity: float):
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        self.capacity = float(capacity)

    def run(
        self,
        pairs: Sequence[CoSAllocationPair],
        *,
        carry_forward: bool = True,
    ) -> SchedulerResult:
        """Simulate every slot of the pairs' common calendar.

        With ``carry_forward=False`` unsatisfied CoS2 demand is dropped
        instead of backlogged (the pure loss model used when measuring the
        instantaneous resource access probability).
        """
        if not pairs:
            raise SimulationError("cannot schedule an empty set of workloads")
        calendar = pairs[0].calendar
        for pair in pairs:
            calendar.require_compatible(pair.calendar)

        n_workloads = len(pairs)
        n_slots = calendar.n_observations
        cos1_requested, cos2_requested = allocation_matrices(pairs)
        cos1_granted = np.zeros_like(cos1_requested)
        cos2_granted = np.zeros_like(cos2_requested)
        max_backlog_age = np.zeros(n_workloads, dtype=int)
        overbooked: list[int] = []

        # Per-workload FIFO of (slot_created, remaining_amount) for
        # deferred CoS2 demand.
        backlogs: list[deque[list[float]]] = [deque() for _ in range(n_workloads)]

        for slot in range(n_slots):
            cos1_slot = cos1_requested[:, slot]
            cos1_total = float(cos1_slot.sum())
            if cos1_total <= self.capacity + _EPSILON:
                cos1_granted[:, slot] = cos1_slot
            else:
                # Placement should prevent this; grant proportionally and
                # record the violation.
                overbooked.append(slot)
                cos1_granted[:, slot] = cos1_slot * (self.capacity / cos1_total)
            remaining = max(0.0, self.capacity - float(cos1_granted[:, slot].sum()))

            if carry_forward:
                demands = np.array(
                    [
                        cos2_requested[row, slot]
                        + sum(entry[1] for entry in backlogs[row])
                        for row in range(n_workloads)
                    ]
                )
            else:
                demands = cos2_requested[:, slot].copy()
            demand_total = float(demands.sum())
            if demand_total <= remaining + _EPSILON:
                grants = demands.copy()
            elif demand_total > 0:
                grants = demands * (remaining / demand_total)
            else:
                grants = np.zeros(n_workloads)
            cos2_granted[:, slot] = grants

            if carry_forward:
                self._drain_backlogs(
                    backlogs,
                    cos2_requested[:, slot],
                    grants,
                    slot,
                    max_backlog_age,
                )

        # Demand still backlogged at trace end waited at least until the
        # final slot.
        if carry_forward:
            final_slot = n_slots - 1
            for row, backlog in enumerate(backlogs):
                for created, remaining_amount in backlog:
                    if remaining_amount > _EPSILON:
                        age = final_slot - int(created) + 1
                        max_backlog_age[row] = max(max_backlog_age[row], age)

        return SchedulerResult(
            workload_names=[pair.name for pair in pairs],
            capacity=self.capacity,
            cos1_requested=cos1_requested,
            cos2_requested=cos2_requested,
            cos1_granted=cos1_granted,
            cos2_granted=cos2_granted,
            max_backlog_age=max_backlog_age,
            overbooked_slots=np.asarray(overbooked, dtype=int),
        )

    def _drain_backlogs(
        self,
        backlogs: list[deque[list[float]]],
        slot_requests: np.ndarray,
        grants: np.ndarray,
        slot: int,
        max_backlog_age: np.ndarray,
    ) -> None:
        """Apply grants oldest-demand-first and enqueue the shortfall."""
        for row, backlog in enumerate(backlogs):
            grant = float(grants[row])
            # Serve backlog first (oldest first).
            while backlog and grant > _EPSILON:
                created, amount = backlog[0]
                served = min(amount, grant)
                amount -= served
                grant -= served
                if amount <= _EPSILON:
                    backlog.popleft()
                    age = slot - int(created)
                    max_backlog_age[row] = max(max_backlog_age[row], age)
                else:
                    backlog[0][1] = amount
            # Then the current slot's request.
            unserved = float(slot_requests[row]) - grant
            if unserved > _EPSILON:
                backlog.append([slot, unserved])
