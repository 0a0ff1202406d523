"""Allocation traces: per-CoS capacity requirements over time.

The QoS translation (Section V of the paper) turns each workload's demand
trace into a *time-varying allocation requirement*, split across the pool's
two classes of service. :class:`AllocationTrace` is a single series of
allocation values; :class:`CoSAllocationPair` bundles the CoS1 (guaranteed)
and CoS2 (statistically multiplexed) series for one workload, which is the
unit the workload placement service schedules.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar

ArrayLike = Union[Sequence[float], np.ndarray]


class AllocationTrace:
    """An immutable time series of capacity-allocation requirements.

    Semantically distinct from :class:`~repro.traces.trace.DemandTrace`:
    demand is what the workload *used*; allocation is what the workload
    manager must *grant* (demand inflated by the burst factor and shaped by
    the QoS translation).
    """

    __slots__ = ("name", "attribute", "calendar", "_values")

    def __init__(
        self,
        name: str,
        values: ArrayLike,
        calendar: TraceCalendar,
        attribute: str = "cpu",
    ):
        array = np.asarray(values, dtype=float)
        if array.ndim != 1:
            raise TraceError(
                f"allocation values must be 1-D, got shape {array.shape}"
            )
        if array.shape[0] != calendar.n_observations:
            raise TraceError(
                f"allocation trace {name!r} has {array.shape[0]} observations "
                f"but the calendar requires {calendar.n_observations}"
            )
        if not np.all(np.isfinite(array)):
            raise TraceError(f"allocation trace {name!r} contains non-finite values")
        if np.any(array < 0):
            raise TraceError(f"allocation trace {name!r} contains negative values")
        array.flags.writeable = False
        self.name = name
        self.attribute = attribute
        self.calendar = calendar
        self._values = array

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __setstate__(self, state: tuple) -> None:
        # Pickle restores the slots but not the array's read-only flag.
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self._values.flags.writeable = False

    def __len__(self) -> int:
        return self._values.shape[0]

    def __repr__(self) -> str:
        return (
            f"AllocationTrace(name={self.name!r}, n={len(self)}, "
            f"peak={self.peak():.3f})"
        )

    def peak(self) -> float:
        """The maximum allocation requirement across the trace."""
        return float(self._values.max())

    def mean(self) -> float:
        return float(self._values.mean())

    def __add__(self, other: "AllocationTrace") -> "AllocationTrace":
        """Element-wise sum of two allocation traces on the same calendar."""
        if not isinstance(other, AllocationTrace):
            return NotImplemented
        self.calendar.require_compatible(other.calendar)
        if self.attribute != other.attribute:
            raise TraceError(
                f"cannot add allocations for attributes {self.attribute!r} "
                f"and {other.attribute!r}"
            )
        return AllocationTrace(
            f"{self.name}+{other.name}",
            self._values + other._values,
            self.calendar,
            self.attribute,
        )


class CoSAllocationPair:
    """Per-CoS allocation requirements for one workload.

    Attributes
    ----------
    cos1:
        Guaranteed-class allocation series. The placement service must keep
        the per-server sum of CoS1 *peaks* within server capacity.
    cos2:
        Statistically multiplexed series served with resource access
        probability theta.
    """

    __slots__ = ("name", "cos1", "cos2")

    def __init__(self, name: str, cos1: AllocationTrace, cos2: AllocationTrace):
        cos1.calendar.require_compatible(cos2.calendar)
        if cos1.attribute != cos2.attribute:
            raise TraceError(
                f"CoS1 attribute {cos1.attribute!r} differs from CoS2 "
                f"attribute {cos2.attribute!r}"
            )
        self.name = name
        self.cos1 = cos1
        self.cos2 = cos2

    @property
    def calendar(self) -> TraceCalendar:
        return self.cos1.calendar

    @property
    def attribute(self) -> str:
        return self.cos1.attribute

    def total(self) -> AllocationTrace:
        """The combined (CoS1 + CoS2) allocation requirement series."""
        return AllocationTrace(
            self.name,
            self.cos1.values + self.cos2.values,
            self.calendar,
            self.attribute,
        )

    def peak_allocation(self) -> float:
        """Peak of the combined allocation requirement (``C_peak`` input)."""
        return float((self.cos1.values + self.cos2.values).max())

    def peak_cos1(self) -> float:
        """Peak guaranteed requirement — bounds CoS1 admission per server."""
        return self.cos1.peak()

    def cos2_fraction(self) -> float:
        """Fraction of total allocation volume carried by CoS2.

        Higher values mean more statistical-multiplexing opportunity for
        the pool operator. Returns 0 for an all-zero pair.
        """
        total = float(self.cos1.values.sum() + self.cos2.values.sum())
        if total == 0:
            return 0.0
        return float(self.cos2.values.sum()) / total

    def __repr__(self) -> str:
        return (
            f"CoSAllocationPair(name={self.name!r}, "
            f"peak_cos1={self.peak_cos1():.3f}, "
            f"peak_total={self.peak_allocation():.3f})"
        )


def allocation_matrices(
    pairs: Sequence[CoSAllocationPair],
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' CoS1 and CoS2 series as two read-only ``(n, T)`` matrices.

    Pairs whose series are exactly the rows of one read-only matrix per
    class, in order — what
    :meth:`~repro.core.translation.QoSTranslator.translate_items`
    returns — get those matrices themselves. Any other set (a subset, a
    reordering, a mix of two translations) is stacked into fresh
    copies. ``pairs`` must not be empty.
    """
    return (
        _rows_matrix([pair.cos1.values for pair in pairs]),
        _rows_matrix([pair.cos2.values for pair in pairs]),
    )


def _rows_matrix(rows: Sequence[np.ndarray]) -> np.ndarray:
    """The read-only matrix whose rows ``rows`` are, or a read-only copy."""
    matrix = rows[0].base
    if (
        isinstance(matrix, np.ndarray)
        and not matrix.flags.writeable
        and matrix.flags.c_contiguous
        and matrix.shape == (len(rows), rows[0].shape[0])
    ):
        start = matrix.__array_interface__["data"][0]
        stride = matrix.strides[0]
        if all(
            row.base is matrix
            and row.__array_interface__["data"][0] == start + index * stride
            for index, row in enumerate(rows)
        ):
            return matrix
    stacked = np.vstack(rows)
    stacked.flags.writeable = False
    return stacked
