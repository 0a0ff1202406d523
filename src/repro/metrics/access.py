"""Resource access probability measurement (Section IV).

The paper defines the measured theta for an attribute with capacity
limit ``L`` as::

    theta = min_w min_t  sum_x min(A_wxt, L) / sum_x A_wxt

where ``A_wxt`` is the aggregate allocation requested in week ``w``, day
``x``, slot-of-day ``t``: the *minimum* resource access probability
received in any week for any of the ``T`` slots per day. Time-of-day
slots are compared across the days of a week to capture the diurnal
nature of interactive enterprise workloads.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CapacityError
from repro.traces.allocation import AllocationTrace
from repro.units import CpuShares, Probability


def theta_by_slot(
    allocation: AllocationTrace, capacity: CpuShares
) -> np.ndarray:
    """Per-(week, slot-of-day) access ratios, shape ``(weeks, T)``.

    Slots whose seven-day aggregate request is zero count as fully
    satisfied (ratio 1): no demand was denied.
    """
    if capacity <= 0:
        raise CapacityError(f"capacity must be > 0, got {capacity}")
    calendar = allocation.calendar
    requested = calendar.slot_of_day_view(allocation.values)
    satisfied = np.minimum(requested, capacity)
    weekly_requested = requested.sum(axis=1)
    weekly_satisfied = satisfied.sum(axis=1)
    ratios = np.ones_like(weekly_requested)
    positive = weekly_requested > 0
    ratios[positive] = weekly_satisfied[positive] / weekly_requested[positive]
    return ratios


def measure_theta(
    allocation: AllocationTrace, capacity: CpuShares
) -> Probability:
    """The paper's theta: the worst (week, slot-of-day) access ratio."""
    ratios = theta_by_slot(allocation, capacity)
    return float(ratios.min()) if ratios.size else 1.0

