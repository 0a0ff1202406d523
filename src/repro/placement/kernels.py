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
  theta) — in row tiles sized to stay cache-resident, or, for a row
  longer than a whole tile, theta a span of weeks at a time and the
  backlog only on the days that can hold some;
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
drain, which no decision does — the scalar path
(:meth:`SingleServerSimulator.evaluate`,
:meth:`~repro.placement.evaluation.PlacementEvaluator.search_result`)
is the only source of one.

Required capacity is monotone in **capacity** (more capacity can only
help — this is what makes bisection sound) but **not** in the workload
subset: adding a workload that is fully satisfied in the binding slot
raises that slot's satisfied/requested ratio, so a superset can
legitimately need *less* capacity than one of its subsets. That is why
no search starts from another subset's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.required_capacity import (
    DEFAULT_TOLERANCE,
    RequiredCapacityResult,
)
from repro.placement.simulator import SingleServerSimulator
from repro.traces.calendar import DAYS_PER_WEEK, TraceCalendar
from repro.units import CpuShares

_EPSILON = 1e-9
_THETA_SLACK = 1e-12

#: Bytes of float64 trace one decision tile may span per working array.
#: A tile keeps about five such arrays live (CoS2, available capacity,
#: satisfied demand, then backlog and served work in their place), so
#: the working set is a small multiple of this; see DESIGN.md section 9
#: for how the value was chosen. Fixed: the tile only changes how many
#: rows one pass touches, never a decision. A row longer than a whole
#: tile is decided on its own (:meth:`BatchSimulator._decide_long`), its
#: theta pass in spans of as many whole weeks as fit in one.
_TILE_BYTES = 1 << 18


def _theta_rows(
    satisfied_now: np.ndarray,
    requested: np.ndarray,
    positive: np.ndarray,
) -> np.ndarray:
    """Measured theta per row of a ``(K, W·7·S)`` satisfied-demand stack.

    ``requested`` and ``positive`` are ``(K, W, S)``: ``W`` weeks of
    ``S`` slots per day. The minimum over weeks and slots-of-day of
    satisfied / requested, with no-request slots counting as fully
    satisfied. Same reduction order as the scalar path (day axis first,
    then the min).
    """
    rows, weeks, slots = requested.shape
    satisfied_view = satisfied_now.reshape(
        rows, weeks, DAYS_PER_WEEK, slots
    ).sum(axis=2)
    ratios = np.ones((rows, weeks, slots), dtype=float)
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


class BatchSimulator:
    """N stacked aggregate traces, each evaluable at its own capacity.

    The batched counterpart of building N
    :class:`SingleServerSimulator` objects: the capacity-independent
    precomputation (peaks, theta denominators) happens once here,
    vectorised over the stack; a row's arrival cumsum is filled in the
    first time a deadline check needs it.
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
        # Weeks per theta span of a row longer than a whole tile; 0 when
        # rows are short enough to be decided in tiles (see ``decide``).
        self._span_weeks = (
            max(1, _TILE_BYTES // (8 * calendar.slots_per_week))
            if 8 * length > _TILE_BYTES
            else 0
        )
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
        cos1_matrix: np.ndarray | Sequence[np.ndarray],
        cos2_matrix: np.ndarray | Sequence[np.ndarray],
        subsets: Sequence[Sequence[int]],
        calendar: TraceCalendar,
    ) -> "BatchSimulator":
        """Aggregate per-workload matrices over each subset's rows.

        ``subsets`` lists the (sorted) workload row indices of each
        batch row. Member rows are added into the batch row one by one
        in subset order — the additions, and their order, of the scalar
        path's ``matrix[subset].sum(axis=0)``, without the gathered copy.
        Each matrix argument is either the one matrix every subset
        indexes or one matrix per subset, so the subsets of several
        evaluators aggregate into one batch.
        """
        length = calendar.n_observations
        cos1 = np.empty((len(subsets), length), dtype=float)
        cos2 = np.empty((len(subsets), length), dtype=float)
        for matrices, out in ((cos1_matrix, cos1), (cos2_matrix, cos2)):
            if isinstance(matrices, np.ndarray):
                matrices = repeat(matrices)
            for row, subset, matrix in zip(out, subsets, matrices):
                row[:] = matrix[subset[0]] if len(subset) else 0.0
                for member in subset[1:]:
                    row += matrix[member]
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
        self._fill_arrivals(index)
        return self._arrivals_cum[index]

    def _fill_arrivals(self, index: np.ndarray) -> None:
        """Compute the arrival cumsums of the rows ``index`` not yet done."""
        missing = index[~self._arrivals_ready[index]]
        if missing.size:
            self._arrivals_cum[missing, 0] = 0.0
            self._arrivals_cum[missing, 1:] = np.cumsum(
                self._cos2[missing], axis=1
            )
            self._arrivals_ready[missing] = True

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
        tiling (see :data:`_TILE_BYTES`) can change a decision. A row
        longer than a whole tile is decided on its own by
        :meth:`_decide_long`, which computes the same floats but stops
        and skips earlier. Also returns how many rows reached the
        backlog pass.
        """
        index, caps = self._pairings(rows, capacities)
        ok = self.peaks[index] <= caps + _EPSILON
        theta_floor = commitment.theta - _THETA_SLACK
        deadline = commitment.deadline_slots(self.calendar)
        backlog_rows = 0
        live = np.nonzero(ok)[0]
        if self._span_weeks:
            for position in live.tolist():
                ok[position], reached = self._decide_long(
                    int(index[position]),
                    float(caps[position]),
                    theta_floor,
                    deadline,
                )
                backlog_rows += reached
            return ok, backlog_rows
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
        # max(0, c - cos1) is the scalar path's max(0, c - min(cos1, c))
        # float for float: the same subtraction where cos1 <= c, +0.0
        # either way where it is not.
        available = self._cos1[index]
        np.subtract(caps_col, available, out=available)
        np.maximum(0.0, available, out=available)
        theta = _theta_rows(
            np.minimum(cos2, available),
            self._requested[index],
            self._positive[index],
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

    def _decide_long(
        self,
        row: int,
        cap: float,
        theta_floor: float,
        deadline: int,
    ) -> tuple[bool, int]:
        """Theta and deadline gates for one peak-passing row longer than a tile.

        The floats :meth:`_decide_tile` computes at every slot it looks
        at, in an order that stops early: theta runs a span of whole
        weeks at a time (each week's cells lie in one span) and fails
        the row at the first span below the floor; the backlog and the
        deadline run only on days with a positive deficit or entered
        with backlog. On any other day the backlog is exactly zero, and
        a slot with no backlog is never late (DESIGN.md section 9, "Rows
        longer than a tile", has the proofs).
        """
        cos1, cos2 = self._cos1[row], self._cos2[row]
        weeks = self.calendar.weeks
        day = self.calendar.slots_per_day
        week = self.calendar.slots_per_week
        span = self._span_weeks
        buffer = np.empty(min(span, weeks) * week)
        for first in range(0, weeks, span):
            last = min(first + span, weeks)
            slots = slice(first * week, last * week)
            satisfied = buffer[: (last - first) * week]
            np.subtract(cap, cos1[slots], out=satisfied)
            np.maximum(0.0, satisfied, out=satisfied)
            np.minimum(cos2[slots], satisfied, out=satisfied)
            theta = _theta_rows(
                satisfied[None],
                self._requested[row, None, first:last],
                self._positive[row, None, first:last],
            )
            if theta[0] < theta_floor:
                return False, 0
        if deadline >= cos2.size:
            # No wait can outlast a deadline of the whole trace.
            return True, 0

        # The deficits cos2 - available; a day with a positive one can
        # build backlog. Then, in place, their prefix sums.
        prefix = np.subtract(cap, cos1)
        np.maximum(0.0, prefix, out=prefix)
        np.subtract(cos2, prefix, out=prefix)
        days = prefix.reshape(-1, day)
        held = days.max(axis=1) > 0.0
        np.cumsum(prefix, out=prefix)
        # The backlog floor entering each day: the running minimum of the
        # earlier days' minima of min(prefix, 0).
        floor = np.minimum(days.min(axis=1), 0.0)
        np.minimum.accumulate(floor, out=floor)
        entering = np.concatenate(([0.0], floor[:-1]))
        # A day entered with backlog can hold some without a deficit.
        held[1:] |= days[:-1, -1] > entering[1:]
        picked = np.nonzero(held)[0]
        if not picked.size:
            return True, 1
        backlog = days[picked]
        running = np.minimum(backlog, 0.0)
        np.minimum(running[:, 0], entering[picked], out=running[:, 0])
        np.minimum.accumulate(running, axis=1, out=running)
        np.subtract(backlog, running, out=backlog)
        if not backlog.max() > _EPSILON:
            return True, 1
        self._fill_arrivals(np.array([row]))
        arrivals = self._arrivals_cum[row]
        at = (picked[:, None] * day + np.arange(day)).ravel()
        judged = at >= deadline
        at = at[judged]
        served = arrivals[at + 1] - backlog.ravel()[judged]
        late = served < arrivals[at - deadline + 1] - _EPSILON
        return not late.any(), 1


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
    ``witness_rejects`` counts the rows the evaluator's witness screen
    (:func:`repro.placement.evaluation._witness_rejects`) answered
    before aggregation; ``rows`` includes them, the other fields do not.
    Every field is recorded uniformly by every kernel mode so counter
    sets stay comparable across runs. A plain tuple of ints, so workers
    ship it as is.
    """

    rows: int
    kernel_calls: int = 0
    bracket_iterations: int = 0
    fused_rows: int = 0
    f32_retries: int = 0
    row_evaluations: int = 0
    backlog_rows: int = 0
    witness_rejects: int = 0


#: Instrumentation counter of each :class:`BatchSearchStats` field.
KERNEL_COUNTERS = (
    "kernel.rows",
    "kernel.calls",
    "kernel.bracket_iterations",
    "kernel.fused_rows",
    "kernel.f32_retries",
    "kernel.row_evaluations",
    "kernel.backlog_rows",
    "kernel.witness_rejects",
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
    mode: str = "bisect",
) -> BatchSearchResult:
    """Simultaneous capacity search over every row of ``batch``.

    ``mode="bisect"`` carries the low/high brackets of all pending rows
    as parallel arrays; each iteration halves every still-open bracket
    with one :meth:`BatchSimulator.decide` call. The ``fits`` and
    ``required_capacity`` of row ``i`` are bit-identical to
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
            row_evaluations=row_evaluations,
            backlog_rows=backlog_rows,
        ),
    )
