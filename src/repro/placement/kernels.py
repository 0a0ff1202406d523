"""Batched capacity-search kernels (Section VI-A, vectorised over rows).

The placement loop's dominant cost is the required-capacity binary
search. The paper's search (Section VI-A) only ever asks one monotone
question of a candidate capacity — *does it honour the commitment?* —
and the planner keeps nothing but ``fits`` and ``required_capacity``
from the answer. This module batches that question:

* :class:`BatchSimulator` stacks the aggregate per-subset traces into
  ``(N, T)`` matrices and hoists the capacity-independent terms (CoS1
  peaks, theta denominators, CoS2 arrival cumsums);
* :meth:`BatchSimulator.decide` answers the commitment for many
  (row, capacity) pairings by **gates in cost order**: the CoS1 peak
  (no trace pass), then theta (only rows that passed the peak), then
  the FIFO backlog and the deadline check (only rows that passed
  theta) — in row tiles sized to stay cache-resident;
* :func:`required_capacity_batch` is a **simultaneous bisection**: the
  low/high brackets of all pending subsets advance as parallel arrays,
  one decision call halving every bracket per iteration, instead of
  ``N`` independent scalar Python loops.

Every gate performs the scalar path's floating-point operations in the
scalar path's order on the row it judges, so each decision — and with
it every bracket and every required capacity — is bit-identical to
``SingleServerSimulator.evaluate(c).satisfies(...)`` and
:func:`~repro.placement.required_capacity.required_capacity`. Search
results carry ``report=None``: measuring an
:class:`~repro.placement.simulator.AccessReport` needs the exact FIFO
drain, which no decision does;
:meth:`~repro.placement.evaluation.PlacementEvaluator.search_result`
(the scalar path) reports, and :func:`evaluate_capacities` /
:meth:`BatchSimulator.evaluate_rows` remain the exact batched
measurements.

Warm starts are *probes*, not bracket clamps. Required capacity is
monotone in **capacity** (more capacity can only help — this is what
makes bisection sound) but **not** in the workload subset: adding a
workload that is fully satisfied in the binding slot raises that slot's
satisfied/requested ratio, so a superset can legitimately need *less*
capacity than one of its subsets. A parent evaluation therefore only
yields a guess, and :func:`required_capacity_batch` spends one decision
row verifying each guess before trusting it as a bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.required_capacity import (
    DEFAULT_TOLERANCE,
    RequiredCapacityResult,
)
from repro.placement.simulator import AccessReport, SingleServerSimulator
from repro.traces.calendar import DAYS_PER_WEEK, TraceCalendar
from repro.units import CpuShares

_EPSILON = 1e-9
_THETA_SLACK = 1e-12

#: Bytes of float64 trace one decision tile may span per working array.
#: A tile keeps about five such arrays live (CoS2, available capacity,
#: satisfied demand, then backlog and served work in their place), so
#: the working set is a small multiple of this; see DESIGN.md section 9
#: for how the value was chosen. Fixed: the tile only changes how many
#: rows one pass touches, never a decision.
_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class BatchAccessReport:
    """Exact access statistics for K (trace row, capacity) pairings.

    The arrays all share one leading axis; :meth:`report` materialises
    one row as a scalar :class:`~repro.placement.simulator.AccessReport`.
    """

    capacities: np.ndarray
    cos1_fits: np.ndarray
    cos1_peaks: np.ndarray
    theta_measured: np.ndarray
    max_deferred_slots: np.ndarray
    cos2_demand_totals: np.ndarray
    cos2_satisfied_on_request: np.ndarray

    def __len__(self) -> int:
        return int(self.capacities.shape[0])

    def satisfies(
        self, commitment: CoSCommitment, calendar: TraceCalendar
    ) -> np.ndarray:
        """Vectorised :meth:`AccessReport.satisfies` over every row."""
        deadline = commitment.deadline_slots(calendar)
        theta_ok = ~(self.theta_measured < commitment.theta - _THETA_SLACK)
        return (
            self.cos1_fits
            & theta_ok
            & (self.max_deferred_slots <= deadline)
        )

    def report(self, row: int) -> AccessReport:
        """Row ``row`` as a scalar :class:`AccessReport`."""
        return AccessReport(
            capacity=float(self.capacities[row]),
            cos1_fits=bool(self.cos1_fits[row]),
            cos1_peak=float(self.cos1_peaks[row]),
            theta_measured=float(self.theta_measured[row]),
            max_deferred_slots=int(self.max_deferred_slots[row]),
            cos2_demand_total=float(self.cos2_demand_totals[row]),
            cos2_satisfied_on_request=float(
                self.cos2_satisfied_on_request[row]
            ),
        )


def _theta_rows(
    satisfied_now: np.ndarray,
    requested: np.ndarray,
    positive: np.ndarray,
    calendar: TraceCalendar,
) -> np.ndarray:
    """Measured theta per row of a ``(K, T)`` satisfied-demand stack.

    The minimum over weeks and slots-of-day of satisfied / requested,
    with no-request slots counting as fully satisfied. Same reduction
    order as the scalar path (day axis first, then the min).
    ``requested``/``positive`` may be broadcastable (one trace against
    K capacities).
    """
    rows = satisfied_now.shape[0]
    satisfied_view = satisfied_now.reshape(
        rows, calendar.weeks, DAYS_PER_WEEK, calendar.slots_per_day
    ).sum(axis=2)
    ratios = np.ones(
        (rows, calendar.weeks, calendar.slots_per_day), dtype=float
    )
    np.divide(satisfied_view, requested, out=ratios, where=positive)
    if not ratios.size:
        return np.ones(rows)
    return ratios.reshape(rows, -1).min(axis=1)


def _fifo_backlog(deficits: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fluid FIFO backlog per slot, computed in place of ``deficits``.

    ``b_t = max(0, b_{t-1} + deficit_t)`` as the prefix sums minus
    their running minimum (clamped at zero) — the scalar path's
    operations, one cumsum/accumulate pass for all rows. ``scratch``
    (same shape) is overwritten.
    """
    prefix = np.cumsum(deficits, axis=-1, out=deficits)
    floor = np.minimum(prefix, 0.0, out=scratch)
    np.minimum.accumulate(floor, axis=-1, out=floor)
    return np.subtract(prefix, floor, out=prefix)


def _batched_metrics(
    cos1: np.ndarray,
    cos2: np.ndarray,
    peaks: np.ndarray,
    requested: np.ndarray,
    positive: np.ndarray,
    arrivals_cum: np.ndarray,
    totals: np.ndarray,
    capacities: np.ndarray,
    calendar: TraceCalendar,
) -> BatchAccessReport:
    """The exact (K, T) measurement behind both reporting entry points.

    ``cos1``/``cos2``/``requested``/``positive``/``arrivals_cum`` may be
    broadcast views (a single trace against K capacities). Every
    backlogged row pays the FIFO drain (one ``searchsorted``), which is
    why the capacity search decides with :meth:`BatchSimulator.decide`
    instead and never calls this.
    """
    rows = capacities.shape[0]
    caps_col = capacities[:, None]
    cos1_fits = peaks <= capacities + _EPSILON
    granted_cos1 = np.minimum(cos1, caps_col)
    available = np.maximum(0.0, caps_col - granted_cos1)
    satisfied_now = np.minimum(cos2, available)
    theta = _theta_rows(satisfied_now, requested, positive, calendar)
    backlog = _fifo_backlog(cos2 - available, scratch=available)
    max_backlog = backlog.max(axis=-1, initial=0.0)

    max_deferred = np.zeros(rows, dtype=np.int64)
    slot_index = np.arange(backlog.shape[-1])
    for row in np.nonzero(max_backlog > _EPSILON)[0]:
        arrivals = arrivals_cum[row, 1:]
        served = arrivals - backlog[row]
        first_served = np.searchsorted(
            served, arrivals - _EPSILON, side="left"
        )
        waits = first_served - slot_index
        max_deferred[row] = max(0, int(waits.max()))

    return BatchAccessReport(
        capacities=capacities,
        cos1_fits=cos1_fits,
        cos1_peaks=np.broadcast_to(peaks, (rows,)),
        theta_measured=theta,
        max_deferred_slots=max_deferred,
        cos2_demand_totals=np.broadcast_to(totals, (rows,)),
        cos2_satisfied_on_request=satisfied_now.sum(axis=-1),
    )


def _theta_threshold_rows(
    cos1: np.ndarray,
    cos2: np.ndarray,
    requested: np.ndarray,
    positive: np.ndarray,
    theta: float,
    calendar: TraceCalendar,
) -> np.ndarray:
    """Exact minimal capacity satisfying the theta constraint, per row.

    For one (week, slot-of-day) cell the satisfied demand
    ``f(c) = sum_d clip(c - cos1_d, 0, cos2_d)`` over the week's days is
    piecewise linear, concave and non-decreasing in the capacity ``c``,
    so the smallest ``c`` with ``f(c) >= theta * requested`` is found by
    walking the cell's ``2 * DAYS_PER_WEEK`` slope breakpoints and
    interpolating — no search. The row's theta threshold is the maximum
    over its cells. This is the closed form behind the ``analytic``
    solver mode: it replaces the theta side of the bisection entirely
    (the caller still *verifies* the candidate with one kernel
    evaluation, so float rounding here can cost iterations, never
    correctness).
    """
    rows, length = cos1.shape
    out = np.zeros(rows, dtype=float)
    if not rows or not length:
        return out
    weeks, spd = calendar.weeks, calendar.slots_per_day
    cells = weeks * spd
    days = DAYS_PER_WEEK
    a = np.ascontiguousarray(
        cos1.reshape(rows, weeks, days, spd).transpose(0, 1, 3, 2)
    ).reshape(rows, cells, days)
    b = np.ascontiguousarray(
        cos2.reshape(rows, weeks, days, spd).transpose(0, 1, 3, 2)
    ).reshape(rows, cells, days)
    target = theta * requested.reshape(rows, cells)
    live = positive.reshape(rows, cells) & (target > 0.0)
    if not bool(live.any()):
        return out

    # Prune with sandwich bounds. Upper: ``f(max(cos1 + cos2)) ==
    # requested``, so each cell's threshold is at most its largest
    # day-end ``e_max``. Lower: the unmet demand at capacity ``c`` is at
    # least ``min(e_max - c, cos2 of that day)``, so whenever the
    # tolerated slack ``(1 - theta) * requested`` is smaller than that
    # day's cos2 the threshold is at least ``e_max - slack`` — within
    # ``slack`` of the upper bound. Cells whose upper bound cannot reach
    # the row's best lower bound can never be the binding maximum; only
    # the survivors (typically a few peak-hour cells) get the exact
    # breakpoint walk.
    ends = a + b
    ceil_cell = ends.max(axis=-1)
    top = np.argmax(ends, axis=-1)[..., None]
    b_at_top = np.take_along_axis(b, top, -1)[..., 0]
    slack = target / theta - target if theta > 0 else np.inf
    tight = np.where(b_at_top > slack, ceil_cell - slack, 0.0)
    coarse = a.min(axis=-1) + target / days
    floor_cell = np.where(live, np.maximum(tight, coarse), 0.0)
    best_floor = floor_cell.max(axis=-1)
    row_idx, cell_idx = np.nonzero(
        live & (ceil_cell >= best_floor[:, None])
    )
    out[:] = np.maximum(best_floor, 0.0)

    kept_a = a[row_idx, cell_idx]
    kept_b = b[row_idx, cell_idx]
    kept_target = target[row_idx, cell_idx]
    breakpoints = np.sort(
        np.concatenate([kept_a, kept_a + kept_b], axis=-1), axis=-1
    )
    f_at = np.clip(
        breakpoints[:, :, None] - kept_a[:, None, :],
        0.0,
        kept_b[:, None, :],
    ).sum(axis=-1)
    # First breakpoint meeting the target (clamped: with theta <= 1 the
    # last breakpoint reaches the full requested demand, so an overshoot
    # can only be float noise and extrapolates the final segment; the
    # caller's verification absorbs it).
    last = breakpoints.shape[-1] - 1
    k1 = np.minimum((f_at < kept_target[:, None]).sum(axis=-1), last)[
        :, None
    ]
    k0 = np.maximum(k1 - 1, 0)
    x1 = np.take_along_axis(breakpoints, k1, -1)[:, 0]
    f1 = np.take_along_axis(f_at, k1, -1)[:, 0]
    x0 = np.take_along_axis(breakpoints, k0, -1)[:, 0]
    f0 = np.take_along_axis(f_at, k0, -1)[:, 0]
    rise = f1 - f0
    run = x1 - x0
    interpolable = (rise > 0.0) & (run > 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        crossing = x0 + (kept_target - f0) * run / rise
    crossing = np.where(interpolable, crossing, x1)
    np.maximum.at(out, row_idx, crossing)
    return np.maximum(out, 0.0)


def evaluate_capacities(
    simulator: SingleServerSimulator, capacities: np.ndarray
) -> BatchAccessReport:
    """Measure one aggregate trace at K candidate capacities at once.

    The multi-capacity kernel behind
    :meth:`SingleServerSimulator.evaluate_batch`: row ``i`` is
    bit-identical to ``simulator.evaluate(capacities[i])``.
    """
    caps = np.asarray(capacities, dtype=float)
    if caps.ndim != 1:
        raise SimulationError(
            f"capacities must be a 1-D array, got shape {caps.shape}"
        )
    if caps.size and float(caps.min()) <= 0:
        raise SimulationError(
            f"capacity must be > 0, got {float(caps.min())}"
        )
    rows = caps.shape[0]
    length = simulator.calendar.n_observations
    return _batched_metrics(
        cos1=np.broadcast_to(simulator._cos1, (rows, length)),
        cos2=np.broadcast_to(simulator._cos2, (rows, length)),
        peaks=np.asarray(simulator._cos1_peak, dtype=float),
        requested=simulator._theta_requested[None, :, :],
        positive=simulator._theta_positive[None, :, :],
        arrivals_cum=np.broadcast_to(
            simulator._cos2_arrivals_cum, (rows, length + 1)
        ),
        totals=np.asarray(simulator._cos2_total, dtype=float),
        capacities=caps,
        calendar=simulator.calendar,
    )


class BatchSimulator:
    """N stacked aggregate traces, each evaluable at its own capacity.

    The batched counterpart of building N
    :class:`SingleServerSimulator` objects: the capacity-independent
    precomputation (peaks, theta denominators) happens once here,
    vectorised over the stack; a row's arrival cumsum is filled in the
    first time a deadline check or an exact report needs it.
    """

    def __init__(
        self,
        cos1_values: np.ndarray,
        cos2_values: np.ndarray,
        calendar: TraceCalendar,
    ):
        cos1 = np.ascontiguousarray(np.asarray(cos1_values, dtype=float))
        cos2 = np.ascontiguousarray(np.asarray(cos2_values, dtype=float))
        if cos1.ndim != 2 or cos2.ndim != 2:
            raise SimulationError(
                "stacked aggregate series must be 2-D (rows, observations)"
            )
        expected = (cos1.shape[0], calendar.n_observations)
        if cos1.shape != expected or cos2.shape != expected:
            raise SimulationError(
                "stacked aggregate series must match the calendar length"
            )
        self.calendar = calendar
        self._cos1 = cos1
        self._cos2 = cos2
        n, length = expected
        self.peaks = (
            cos1.max(axis=1) if length else np.zeros(n, dtype=float)
        )
        self._requested = cos2.reshape(
            n, calendar.weeks, DAYS_PER_WEEK, calendar.slots_per_day
        ).sum(axis=2)
        self._positive = self._requested > 0
        # Filled per row on first use (see ``_arrivals``): most rows of
        # a search fail a cheaper gate and never need theirs.
        self._arrivals_cum = np.empty((n, length + 1), dtype=float)
        self._arrivals_ready = np.zeros(n, dtype=bool)
        self._tile_rows = max(1, _TILE_BYTES // (8 * max(1, length)))
        self._theta_cache: dict[float, np.ndarray] = {}

    def theta_thresholds(self, theta: float) -> np.ndarray:
        """Per-row exact theta capacity thresholds (cached per theta)."""
        key = float(theta)
        cached = self._theta_cache.get(key)
        if cached is None:
            cached = _theta_threshold_rows(
                self._cos1,
                self._cos2,
                self._requested,
                self._positive,
                key,
                self.calendar,
            )
            self._theta_cache[key] = cached
        return cached

    @classmethod
    def from_subsets(
        cls,
        cos1_matrix: np.ndarray,
        cos2_matrix: np.ndarray,
        subsets: Sequence[Sequence[int]],
        calendar: TraceCalendar,
    ) -> "BatchSimulator":
        """Aggregate per-workload matrices over each subset's rows.

        ``subsets`` lists the (sorted) workload row indices of each
        batch row, exactly as the scalar path sums them.
        """
        length = calendar.n_observations
        cos1 = np.empty((len(subsets), length), dtype=float)
        cos2 = np.empty((len(subsets), length), dtype=float)
        for row, subset in enumerate(subsets):
            index = np.asarray(subset, dtype=int)
            cos1[row] = cos1_matrix[index].sum(axis=0)
            cos2[row] = cos2_matrix[index].sum(axis=0)
        return cls(cos1, cos2, calendar)

    @property
    def n_rows(self) -> int:
        return int(self._cos1.shape[0])

    def simulator_for(self, row: int) -> SingleServerSimulator:
        """A scalar simulator over one stacked row (testing/debugging)."""
        return SingleServerSimulator(
            self._cos1[row], self._cos2[row], self.calendar
        )

    def _arrivals(self, index: np.ndarray) -> np.ndarray:
        """``[0, cumsum(cos2)]`` for the rows ``index`` (a copy)."""
        missing = index[~self._arrivals_ready[index]]
        if missing.size:
            self._arrivals_cum[missing, 0] = 0.0
            self._arrivals_cum[missing, 1:] = np.cumsum(
                self._cos2[missing], axis=1
            )
            self._arrivals_ready[missing] = True
        return self._arrivals_cum[index]

    def _pairings(
        self, rows: Optional[np.ndarray], capacities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(row index, capacity)`` arrays (``None`` = all)."""
        caps = np.asarray(capacities, dtype=float)
        index = (
            np.arange(self.n_rows)
            if rows is None
            else np.asarray(rows, dtype=int)
        )
        if caps.shape != index.shape or caps.ndim != 1:
            raise SimulationError(
                f"need one capacity per row, got {caps.shape} "
                f"for {index.shape}"
            )
        if caps.size and float(caps.min()) <= 0:
            raise SimulationError(
                f"capacity must be > 0, got {float(caps.min())}"
            )
        return index, caps

    def evaluate_rows(
        self, rows: Optional[np.ndarray], capacities: np.ndarray
    ) -> BatchAccessReport:
        """Exact reports for ``rows`` (``None`` = all) at their capacities.

        Row ``i`` is bit-identical to
        ``simulator_for(rows[i]).evaluate(capacities[i])``.
        """
        index, caps = self._pairings(rows, capacities)
        cos2 = self._cos2[index]
        return _batched_metrics(
            cos1=self._cos1[index],
            cos2=cos2,
            peaks=self.peaks[index],
            requested=self._requested[index],
            positive=self._positive[index],
            arrivals_cum=self._arrivals(index),
            totals=cos2.sum(axis=1),
            capacities=caps,
            calendar=self.calendar,
        )

    def decide(
        self,
        rows: Optional[np.ndarray],
        capacities: np.ndarray,
        commitment: CoSCommitment,
    ) -> tuple[np.ndarray, int]:
        """Does each row honour ``commitment`` at its capacity?

        The capacity search's one question, answered without measuring
        a report. Row ``i`` of the boolean result equals
        ``simulator_for(rows[i]).evaluate(capacities[i]).satisfies(...)``
        — the three constraints are a conjunction, so a row is dropped
        at the first gate it fails, cheapest gate first:

        1. CoS1 peak against the capacity — no trace pass;
        2. theta — one pass, only for rows that passed the peak;
        3. the FIFO backlog (cumsum/accumulate), only for rows that
           passed theta, then the deadline for rows that are backlogged
           at all. Serving is FIFO, so the arrival in slot ``t`` waits
           more than ``D`` slots iff the work served through slot
           ``t + D`` still trails the arrivals through ``t``: one
           shifted comparison per row, no per-row ``searchsorted``.

        Each gate is the scalar path's float64 operations on that row,
        and rows are independent, so neither the gating nor the row
        tiling (see :data:`_TILE_BYTES`) can change a decision. Also
        returns how many rows reached the backlog pass.
        """
        index, caps = self._pairings(rows, capacities)
        ok = self.peaks[index] <= caps + _EPSILON
        theta_floor = commitment.theta - _THETA_SLACK
        deadline = commitment.deadline_slots(self.calendar)
        backlog_rows = 0
        live = np.nonzero(ok)[0]
        for start in range(0, live.size, self._tile_rows):
            tile = live[start : start + self._tile_rows]
            ok[tile], reached = self._decide_tile(
                index[tile], caps[tile], theta_floor, deadline
            )
            backlog_rows += reached
        return ok, backlog_rows

    def _decide_tile(
        self,
        index: np.ndarray,
        caps: np.ndarray,
        theta_floor: float,
        deadline: int,
    ) -> tuple[np.ndarray, int]:
        """Theta and deadline gates for one tile of peak-passing rows."""
        caps_col = caps[:, None]
        # ``index`` is an integer array, so these are private copies the
        # passes below overwrite in place.
        cos2 = self._cos2[index]
        available = self._cos1[index]
        np.minimum(available, caps_col, out=available)
        np.subtract(caps_col, available, out=available)
        np.maximum(0.0, available, out=available)
        theta = _theta_rows(
            np.minimum(cos2, available),
            self._requested[index],
            self._positive[index],
            self.calendar,
        )
        ok = ~(theta < theta_floor)
        passed = np.nonzero(ok)[0]
        length = cos2.shape[-1]
        if not passed.size or deadline >= length:
            # No wait can outlast a deadline of the whole trace.
            return ok, 0
        if passed.size < index.size:
            cos2 = cos2[passed]
            available = available[passed]

        backlog = _fifo_backlog(
            np.subtract(cos2, available, out=cos2), scratch=available
        )
        backlogged = np.nonzero(
            backlog.max(axis=-1, initial=0.0) > _EPSILON
        )[0]
        if backlogged.size:
            checked = passed[backlogged]
            arrivals = self._arrivals(index[checked])
            served = arrivals[:, 1:] - backlog[backlogged]
            late = np.any(
                served[:, deadline:]
                < arrivals[:, 1 : length - deadline + 1] - _EPSILON,
                axis=1,
            )
            ok[checked[late]] = False
        return ok, int(passed.size)


class BatchSearchStats(NamedTuple):
    """Work accounting for one simultaneous capacity solve.

    ``kernel_calls`` counts decision steps (one :meth:`BatchSimulator.decide`
    call, however many tiles it ran), ``row_evaluations`` the rows those
    steps judged, and ``backlog_rows`` the ones that got past the peak
    and theta gates to the cumsum/accumulate pass — the gap between the
    two is the work the gate order saves. ``fused_rows``/``f32_retries``
    stay zero outside the fused kernel (:mod:`repro.placement.fused`):
    they count rows settled by the float32 fast path and rows that
    failed its float64 verification and re-ran on this batch kernel.
    Every field is recorded uniformly by every kernel mode so counter
    sets stay comparable across runs. A plain tuple of ints, so workers
    ship it as is.
    """

    rows: int
    kernel_calls: int = 0
    bracket_iterations: int = 0
    probe_hits: int = 0
    fused_rows: int = 0
    f32_retries: int = 0
    row_evaluations: int = 0
    backlog_rows: int = 0


#: Instrumentation counter of each :class:`BatchSearchStats` field.
KERNEL_COUNTERS = (
    "kernel.rows",
    "kernel.calls",
    "kernel.bracket_iterations",
    "kernel.probe_hits",
    "kernel.fused_rows",
    "kernel.f32_retries",
    "kernel.row_evaluations",
    "kernel.backlog_rows",
)


@dataclass(frozen=True)
class BatchSearchResult:
    """Per-row scalar-equivalent results plus solver work stats."""

    results: tuple[RequiredCapacityResult, ...]
    stats: BatchSearchStats


def required_capacity_batch(
    batch: BatchSimulator,
    capacity_limits: np.ndarray,
    commitment: CoSCommitment,
    tolerance: CpuShares = DEFAULT_TOLERANCE,
    probes: Optional[np.ndarray] = None,
    mode: str = "bisect",
) -> BatchSearchResult:
    """Simultaneous capacity search over every row of ``batch``.

    ``mode="bisect"`` carries the low/high brackets of all pending rows
    as parallel arrays; each iteration halves every still-open bracket
    with one :meth:`BatchSimulator.decide` call. Without ``probes`` the
    ``fits`` and ``required_capacity`` of row ``i`` are bit-identical to
    ``required_capacity(..., capacity_limit=capacity_limits[i])`` on the
    row's aggregate trace. Every result's ``report`` is ``None``: the
    search only decides (see the module docstring).

    ``mode="analytic"`` inverts the theta constraint in closed form
    (:func:`_theta_threshold_rows`), decides each row once at that
    candidate, and falls back to bisection only for rows where the
    deferral deadline — not theta — is the binding constraint. Every
    decision is still a measured one, so results stay within
    ``tolerance`` of the scalar path (they are no longer bit-identical:
    the analytic candidate is the exact constraint boundary rather than
    a bisection grid point).

    ``probes`` (optional, ``NaN`` = none) are warm-start capacity
    guesses, e.g. a parent assignment's required capacity for a similar
    subset. Each guess costs two decision rows in one call: a guess
    ``g`` that satisfies the commitment while ``g - tolerance`` does not
    finishes that row's search immediately; otherwise the verified side
    tightens the bracket. Probed rows stay within ``tolerance`` of the
    true minimum but may differ from the scalar path by up to
    ``tolerance``.
    """
    limits = np.asarray(capacity_limits, dtype=float)
    n = batch.n_rows
    if limits.shape != (n,):
        raise SimulationError(
            f"need one capacity limit per row, got {limits.shape} for {n}"
        )
    if limits.size and float(limits.min()) <= 0:
        raise SimulationError(
            f"capacity_limit must be > 0, got {float(limits.min())}"
        )
    if tolerance <= 0:
        raise SimulationError(f"tolerance must be > 0, got {tolerance}")
    if mode not in ("bisect", "analytic"):
        raise SimulationError(
            f"mode must be 'bisect' or 'analytic', got {mode!r}"
        )

    kernel_calls = 0
    row_evaluations = 0
    backlog_rows = 0
    bracket_iterations = 0
    probe_hits = 0

    def satisfied(rows: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        """One decision step over ``rows`` (none is not a step)."""
        nonlocal kernel_calls, row_evaluations, backlog_rows
        if not rows.size:
            return np.zeros(0, dtype=bool)
        ok, reached = batch.decide(rows, capacities, commitment)
        kernel_calls += 1
        row_evaluations += int(rows.size)
        backlog_rows += reached
        return ok

    # Required capacity per row; infinity until a search settles it (and
    # for good when the row does not fit its limit).
    required = np.full(n, np.inf)

    # CoS1 peaks alone exceeding the limit: no fit, no simulation.
    peaks = batch.peaks
    candidate = np.nonzero(peaks <= limits + _EPSILON)[0]
    floors = np.maximum(peaks, tolerance)

    # Analytic pre-pass: jump straight to the exact theta boundary and
    # verify it with one decision. Rows whose candidate already reaches
    # the limit skip it (the limit screen below decides them), rows
    # that verify are done, and rows where the deferral deadline binds
    # above the theta boundary keep the failed candidate as a proven
    # lower bracket for the bisection fallback.
    if mode == "analytic" and candidate.size:
        thresholds = batch.theta_thresholds(commitment.theta)[candidate]
        cand = np.maximum(
            floors[candidate], thresholds * (1.0 + _THETA_SLACK) + _EPSILON
        )
        direct = cand < limits[candidate]
        direct_rows = candidate[direct]
        cand_ok = satisfied(direct_rows, cand[direct])
        required[direct_rows[cand_ok]] = cand[direct][cand_ok]
        floors[direct_rows[~cand_ok]] = cand[direct][~cand_ok]
        candidate = candidate[np.isinf(required[candidate])]

    # Screen at the limit: rows that miss the commitment there never fit.
    rows = candidate[satisfied(candidate, limits[candidate])]
    low = floors[rows]
    high = limits[rows].copy()

    def settle(done: np.ndarray, at: np.ndarray) -> None:
        """Record ``at`` for the ``done`` rows and drop them."""
        nonlocal rows, low, high
        required[rows[done]] = at[done]
        rows, low, high = rows[~done], low[~done], high[~done]

    # Degenerate bracket (low >= high): the limit itself is the answer.
    settle(~(low < high), high)

    # The scalar path's low probe: a floor that satisfies ends the
    # search. The analytic pre-pass subsumes it (its candidate is never
    # below this floor and already failed for every row still open).
    if mode != "analytic":
        settle(satisfied(rows, low), low)

    # Warm-start probes: verify each guess (and its tolerance sibling)
    # with one decision call, then bracket on the verified side.
    if probes is not None and rows.size:
        guesses = np.asarray(probes, dtype=float)[rows]
        usable = np.isfinite(guesses)
        usable &= (guesses > low) & (guesses < high)
        probed = np.nonzero(usable)[0]
        guess = guesses[probed]
        sibling = np.maximum(guess - tolerance, low[probed])
        verdicts = satisfied(
            np.concatenate([rows[probed], rows[probed]]),
            np.concatenate([guess, sibling]),
        )
        guess_ok, sibling_ok = verdicts[: probed.size], verdicts[probed.size :]
        high[probed] = np.where(
            guess_ok, np.where(sibling_ok, sibling, guess), high[probed]
        )
        low[probed] = np.where(
            guess_ok, np.where(sibling_ok, low[probed], sibling), guess
        )
        probe_hits = int((guess_ok & ~sibling_ok).sum())

    # Simultaneous bisection: one decision call per iteration.
    while rows.size:
        settle(~(high - low > tolerance), high)
        if not rows.size:
            break
        mid = (low + high) / 2.0
        mid_ok = satisfied(rows, mid)
        bracket_iterations += int(rows.size)
        high = np.where(mid_ok, mid, high)
        low = np.where(mid_ok, low, mid)

    return BatchSearchResult(
        results=tuple(
            RequiredCapacityResult(
                fits=fits, required_capacity=capacity, report=None
            )
            for fits, capacity in zip(
                np.isfinite(required).tolist(), required.tolist()
            )
        ),
        stats=BatchSearchStats(
            rows=n,
            kernel_calls=kernel_calls,
            bracket_iterations=bracket_iterations,
            probe_hits=probe_hits,
            row_evaluations=row_evaluations,
            backlog_rows=backlog_rows,
        ),
    )
