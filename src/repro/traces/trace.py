"""Demand traces: observed resource demand per workload over time.

A :class:`DemandTrace` binds a named workload to a flat series of demand
observations on a :class:`~repro.traces.calendar.TraceCalendar`. Demand is
expressed in capacity units of one attribute (the paper's case study uses
CPUs; memory or I/O attributes use the same type with a different
``attribute`` tag).

Traces are immutable: all transformations return new instances. This keeps
the QoS translation pipeline referentially transparent — the same input
trace always produces the same allocation plan.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

import numpy as np

from repro.exceptions import TraceError
from repro.traces.calendar import TraceCalendar

ArrayLike = Union[Sequence[float], np.ndarray]

CPU_ATTRIBUTE = "cpu"


class DemandTrace:
    """An immutable time series of demand observations for one workload.

    Parameters
    ----------
    name:
        Workload identifier, unique within an ensemble.
    values:
        Demand observations, one per calendar slot; all must be finite
        and non-negative.
    calendar:
        The grid the observations live on.
    attribute:
        Capacity attribute the demand refers to (default ``"cpu"``).
    repairs:
        How many observations ingest had to quarantine and repair to
        admit this series (see
        :func:`repro.traces.validation.quarantine_series`); zero for
        trusted in-process data. Diagnostic only — it does not
        participate in equality, and derived traces reset it.
    """

    __slots__ = ("name", "attribute", "calendar", "repairs", "_values")

    def __init__(
        self,
        name: str,
        values: ArrayLike,
        calendar: TraceCalendar,
        attribute: str = CPU_ATTRIBUTE,
        *,
        repairs: int = 0,
    ):
        array = np.asarray(values, dtype=float)
        if array.ndim != 1:
            raise TraceError(f"trace values must be 1-D, got shape {array.shape}")
        if array.shape[0] != calendar.n_observations:
            raise TraceError(
                f"trace {name!r} has {array.shape[0]} observations but the "
                f"calendar requires {calendar.n_observations}"
            )
        if not np.all(np.isfinite(array)):
            raise TraceError(f"trace {name!r} contains non-finite values")
        if np.any(array < 0):
            raise TraceError(f"trace {name!r} contains negative demand")
        if repairs < 0:
            raise TraceError(f"repairs must be >= 0, got {repairs}")
        array.flags.writeable = False
        self.name = name
        self.attribute = attribute
        self.calendar = calendar
        self.repairs = int(repairs)
        self._values = array

    @property
    def values(self) -> np.ndarray:
        """The read-only observation array (length ``calendar.n_observations``)."""
        return self._values

    def __setstate__(self, state: tuple) -> None:
        # Pickle restores the slots but not the array's read-only flag.
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self._values.flags.writeable = False

    def __len__(self) -> int:
        return self._values.shape[0]

    def __iter__(self) -> Iterable[float]:
        return iter(self._values)

    def __getitem__(self, index: int) -> float:
        return float(self._values[index])

    def __repr__(self) -> str:
        return (
            f"DemandTrace(name={self.name!r}, attribute={self.attribute!r}, "
            f"n={len(self)}, peak={self.peak():.3f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DemandTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.attribute == other.attribute
            and self.calendar == other.calendar
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attribute, self.calendar, self._values.tobytes()))

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def peak(self) -> float:
        """``D_max``: the largest observed demand."""
        return float(self._values.max())

    def mean(self) -> float:
        return float(self._values.mean())

    def percentile(self, percentile: float, method: str = "linear") -> float:
        """``D_M%``: the ``percentile``-th percentile of demand.

        The default linear interpolation makes ``percentile(100)`` equal
        :meth:`peak` exactly. ``method="higher"`` returns the smallest
        observed value with at most ``100 - percentile`` percent of
        observations strictly above it — the conservative choice the
        ``M_degr`` relaxation needs so the degraded budget is never
        exceeded by an interpolation artifact.
        """
        if not 0 <= percentile <= 100:
            raise TraceError(f"percentile must be in [0, 100], got {percentile}")
        return float(np.percentile(self._values, percentile, method=method))

    def is_constant(self) -> bool:
        return bool(np.all(self._values == self._values[0]))

    # ------------------------------------------------------------------
    # Transformations (all return new traces)
    # ------------------------------------------------------------------
    def with_values(self, values: ArrayLike, name: str | None = None) -> "DemandTrace":
        """Return a trace on the same calendar with replaced values."""
        return DemandTrace(
            name if name is not None else self.name,
            values,
            self.calendar,
            self.attribute,
        )

    def scaled(self, factor: float) -> "DemandTrace":
        """Return a trace with every observation multiplied by ``factor``."""
        if factor < 0:
            raise TraceError(f"scale factor must be >= 0, got {factor}")
        return self.with_values(self._values * factor)

    def mapped(self, transform: Callable[[np.ndarray], np.ndarray]) -> "DemandTrace":
        """Return a trace with ``transform`` applied to the value array."""
        return self.with_values(transform(self._values.copy()))

    def renamed(self, name: str) -> "DemandTrace":
        return DemandTrace(name, self._values, self.calendar, self.attribute)
