"""Generation-scale fused capacity kernel (float32 fast + float64 verify).

One GA generation produces dozens to hundreds of cache-missing
``(group, server, attribute)`` capacity searches. The batch kernel
(:func:`~repro.placement.kernels.required_capacity_batch`) already
solves them as one simultaneous bisection, but every bracket halving
still pays a full ``(rows, T)`` float64 pass over the uncompressed
traces — roughly fifteen such passes per solve. This module removes
almost all of them:

* **Total-demand reformulation.** Inside the search bracket the
  candidate capacity ``C`` never drops below the CoS1 peak, so the
  granted CoS1 is the whole CoS1 series and the FIFO backlog recursion
  collapses to ``b_t = max(0, b_{t-1} + total_t - C)`` over the single
  series ``total = cos1 + cos2``. The deadline check becomes
  capacity-independent on one side: a slot is late iff
  ``b_u > V_u + eps`` where ``V_u`` (the CoS2 arrivals over the
  trailing deadline window) is precomputed once per group.
* **Run-length compression.** The backlog at the compression floor
  ``B = max(peak, tolerance, theta threshold)`` is pointwise monotone
  decreasing in ``C``, so every slot with zero floor-backlog stays at
  zero for all candidate capacities ``>= B`` and can neither be late
  nor feed backlog into a later slot. Only the runs of positive
  floor-backlog slots are kept, separated by a synthetic *drain* slot
  of demand ``-(floor backlog at the run's end)`` that provably resets
  the recursion to zero for any ``C >= B`` while keeping magnitudes
  within the data's own range (float32-safe). Raising the floor to the
  exact theta threshold is what makes the compression bite — below it
  every candidate already fails the (cheap, closed-form) theta
  comparison, so the late scan is never consulted there, and at
  capacities above it the backlog drains most of the time by
  construction (at least ``theta`` of the CoS2 demand is served on
  request).
* **float32 fast path, float64 verification.** Brackets (low, high,
  mid) stay float64 on exactly the dyadic grid the batch kernel walks;
  only the per-iteration *decisions* run on the compressed float32
  arrays. After convergence one stacked float64
  :meth:`~repro.placement.kernels.BatchSimulator.decide` call over the
  original traces — the batch kernel's own decision function —
  verifies, for every row, that the winning capacity satisfies the
  commitment and the losing bracket edge does not. A
  monotone predicate makes that check retroactively validate every
  decision that influenced the bracket: the low edge only ever rises to
  capacities judged infeasible and the high edge only ever falls to
  capacities judged feasible, so a float32 misjudgement at any step
  leaves a contradiction at one of the two verified endpoints. Rows
  that verify are therefore **bit-identical** to the batch kernel's
  winners; rows that do not are re-solved by
  :func:`~repro.placement.kernels.required_capacity_batch` and counted
  as ``f32_retries``.

The per-iteration late check is a tiny vectorised numpy scan. It sits
below the float64 verification, so it only needs to be *approximately*
right — a wrong decision costs a retry, never correctness.

Fused results carry ``report=None``, as the batch kernel's do: the
placement layers only consume ``fits`` and ``required_capacity``, and
materialising reports would need the exact FIFO drain no search pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.kernels import (
    _EPSILON,
    BatchSearchResult,
    BatchSearchStats,
    BatchSimulator,
    _theta_threshold_rows,
    required_capacity_batch,
)
from repro.placement.required_capacity import (
    DEFAULT_TOLERANCE,
    RequiredCapacityResult,
)
from repro.traces.calendar import TraceCalendar


def _late_rows_numpy(
    totals: np.ndarray, guards: np.ndarray, capacities: np.ndarray
) -> np.ndarray:
    """Vectorised late check over compressed float32 rows.

    Uses the prefix-minus-running-minimum identity for the clamped
    backlog recursion; drain slots reset the backlog exactly, so the
    prefix never drifts further than the data's own magnitudes.
    """
    if totals.shape[1] == 0:
        return np.zeros(totals.shape[0], dtype=bool)
    deficits = totals - capacities[:, None]
    prefix = np.cumsum(deficits, axis=1, dtype=np.float32)
    floor = np.minimum.accumulate(
        np.minimum(prefix, np.float32(0.0)), axis=1
    )
    backlog = prefix - floor
    return np.any(backlog > guards, axis=1)


@dataclass(frozen=True)
class GroupTranslation:
    """One group's capacity-independent compressed representation.

    ``totals``/``guards`` are the float64 compressed demand series and
    late-check guard windows (``+inf`` marks drain slots and slots that
    can never be late), cast to float32 only where the fused search
    stacks them; ``theta_cap`` is the exact float64 minimal
    capacity satisfying the theta constraint and ``low0`` the search
    bracket floor. The compression was computed against the floor
    ``max(low0, theta_cap)`` — the scan is only valid for capacities at
    or above it, which is exactly where the late decision is ever
    consulted (below ``theta_cap`` the theta comparison already fails
    the candidate).
    """

    peak: float
    theta_cap: float
    low0: float
    totals: np.ndarray
    guards: np.ndarray

    @property
    def width(self) -> int:
        """Compressed slot count (original trace length upper bound)."""
        return int(self.totals.shape[0])


def _compress_row(
    total: np.ndarray,
    guard: np.ndarray,
    backlog_floor: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Compress one row to its positive floor-backlog runs plus drains."""
    active = np.nonzero(backlog_floor > 0.0)[0]
    if active.size == 0:
        empty = np.zeros(0)
        return empty, empty
    gaps = np.nonzero(np.diff(active) > 1)[0]
    starts = np.concatenate([active[:1], active[gaps + 1]])
    ends = np.concatenate([active[gaps], active[-1:]])
    lengths = ends - starts + 1
    n_runs = ends.shape[0]
    out_len = int(active.size + n_runs)
    drain_pos = np.cumsum(lengths) + np.arange(n_runs)
    keep = np.ones(out_len, dtype=bool)
    keep[drain_pos] = False
    totals_c = np.empty(out_len, dtype=np.float64)
    totals_c[keep] = total[active]
    totals_c[drain_pos] = -backlog_floor[ends]
    guards_c = np.full(out_len, np.inf, dtype=np.float64)
    guards_c[keep] = guard[active]
    return totals_c, guards_c


def translate_rows(
    batch: BatchSimulator,
    rows: np.ndarray,
    commitment: CoSCommitment,
    tolerance: float,
    limits: Optional[np.ndarray] = None,
) -> list[GroupTranslation]:
    """Build translations for ``rows`` of ``batch`` (one per row).

    Only the requested rows are translated — the caller runs its
    (translation-free) peak screen first so rows it already killed
    never pay the theta walk or the run-length compression.
    When per-row capacity ``limits`` are given, rows whose exact theta
    threshold already exceeds their limit come back as empty-width
    stubs: the fused search decides them no-fit on the closed-form
    theta comparison alone (the late scan is masked out below the
    threshold), so their run-length compression would never be read.
    """
    index = np.asarray(rows, dtype=int)
    cos1 = batch._cos1[index]
    cos2 = batch._cos2[index]
    peaks = batch.peaks[index]
    theta_caps = _theta_threshold_rows(
        cos1,
        cos2,
        batch._requested[index],
        batch._positive[index],
        commitment.theta,
        batch.calendar,
    )
    low0 = np.maximum(peaks, tolerance)
    compression_floor = np.maximum(low0, theta_caps)
    length = batch.calendar.n_observations
    deadline = commitment.deadline_slots(batch.calendar)
    late_possible = 0 <= deadline < length
    needed = np.ones(index.shape[0], dtype=bool)
    if limits is not None:
        needed = np.asarray(limits, dtype=float) >= theta_caps
    compress_at = np.full(index.shape[0], -1, dtype=int)
    total = np.zeros((0, 0))
    guard = total
    backlog_floor = total
    if late_possible:
        keep = np.nonzero(needed)[0]
        compress_at[keep] = np.arange(keep.size)
        total = cos1[keep] + cos2[keep]
        prefix = np.cumsum(
            total - compression_floor[keep, None], axis=1
        )
        floor = np.minimum.accumulate(np.minimum(prefix, 0.0), axis=1)
        backlog_floor = prefix - floor
        guard = np.full((keep.size, length), np.inf)
        arrivals = batch._arrivals(index[keep])
        guard[:, deadline:] = (
            arrivals[:, deadline + 1 :]
            - arrivals[:, 1 : length - deadline + 1]
            + _EPSILON
        )
    translations = []
    empty = np.zeros(0)
    for position in range(index.shape[0]):
        at = int(compress_at[position])
        if late_possible and at >= 0:
            totals_c, guards_c = _compress_row(
                total[at], guard[at], backlog_floor[at]
            )
        else:
            totals_c, guards_c = empty, empty
        translations.append(
            GroupTranslation(
                peak=float(peaks[position]),
                theta_cap=float(theta_caps[position]),
                low0=float(low0[position]),
                totals=totals_c,
                guards=guards_c,
            )
        )
    return translations


#: Planned per-row outcomes awaiting float64 verification.
_NO_FIT = 0
_WIN_HIGH_ONLY = 1
_WIN_BRACKET = 2


def fused_required_capacity(
    cos1_matrix: np.ndarray,
    cos2_matrix: np.ndarray,
    subsets: Sequence[tuple[int, ...]],
    calendar: TraceCalendar,
    capacity_limits: np.ndarray,
    commitment: CoSCommitment,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BatchSearchResult:
    """Solve every subset's capacity search on the fused fast path.

    Row ``i`` is bit-identical (in ``fits``/``required_capacity``) to
    ``required_capacity_batch`` in ``bisect`` mode over the same
    subsets — rows whose float32 trajectory fails the
    float64 endpoint verification are transparently re-solved by that
    very kernel (``stats.f32_retries`` counts them; ``stats.fused_rows``
    counts the rows the fast path settled). Reports are ``None``; see
    the module docstring.
    """
    limits = np.asarray(capacity_limits, dtype=float)
    n = len(subsets)
    if limits.shape != (n,):
        raise SimulationError(
            f"need one capacity limit per subset, got {limits.shape} "
            f"for {n}"
        )
    if limits.size and float(limits.min()) <= 0:
        raise SimulationError(
            f"capacity_limit must be > 0, got {float(limits.min())}"
        )
    if tolerance <= 0:
        raise SimulationError(f"tolerance must be > 0, got {tolerance}")
    batch = BatchSimulator.from_subsets(
        cos1_matrix, cos2_matrix, subsets, calendar
    )

    kernel_calls = 0
    fused_rows = 0
    f32_retries = 0
    infinity = float("inf")
    results: list[Optional[RequiredCapacityResult]] = [None] * n

    # Peak screen: pure float64 arithmetic, identical to the batch
    # kernel's screen — needs no verification, and runs before any
    # translation so screened-out rows never pay for one.
    peaks = batch.peaks
    candidate = np.nonzero(peaks <= limits + _EPSILON)[0]
    for row in np.nonzero(peaks > limits + _EPSILON)[0]:
        results[row] = RequiredCapacityResult(
            fits=False, required_capacity=infinity, report=None
        )
    if candidate.size == 0:
        return BatchSearchResult(
            results=tuple(results),  # type: ignore[arg-type]
            stats=BatchSearchStats(rows=n),
        )

    m = int(candidate.size)
    cand_translations = translate_rows(
        batch, candidate, commitment, tolerance, limits=limits[candidate]
    )
    width = max(t.width for t in cand_translations)
    # The float32 fast path starts here: assignment rounds each float64.
    stack_totals = np.zeros((m, width), dtype=np.float32)
    stack_guards = np.full((m, width), np.inf, dtype=np.float32)
    for position, translation in enumerate(cand_translations):
        w = translation.width
        if w:
            stack_totals[position, :w] = translation.totals
            stack_guards[position, :w] = translation.guards
    theta_caps = np.asarray(
        [t.theta_cap for t in cand_translations], dtype=float
    )
    low = np.asarray([t.low0 for t in cand_translations], dtype=float)
    high = limits[candidate].copy()

    def decide(positions: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        """float32 commitment decision for candidate ``positions``.

        Capacities below the theta threshold fail on the (closed-form)
        theta comparison alone; only the survivors run the late scan —
        which also keeps every scan at or above the compression floor,
        where the compressed series is valid.
        """
        ok = capacities >= theta_caps[positions]
        active = np.nonzero(ok)[0]
        if active.size:
            late = _late_rows_numpy(
                stack_totals[positions[active]],
                stack_guards[positions[active]],
                capacities[active].astype(np.float32),
            )
            ok[active[late]] = False
        return ok

    # Planned per-row outcomes; verified in one stacked float64 call.
    outcome = np.full(m, _NO_FIT, dtype=np.int64)
    win = np.zeros(m, dtype=float)
    lose = np.zeros(m, dtype=float)
    iterations = np.zeros(m, dtype=np.int64)

    everyone = np.arange(m)
    ok_limit = decide(everyone, high)
    pending = everyone[ok_limit]

    # Degenerate brackets: the limit itself is the planned winner.
    open_bracket = low[pending] < high[pending]
    for position in pending[~open_bracket]:
        outcome[position] = _WIN_HIGH_ONLY
        win[position] = float(high[position])
    pending = pending[open_bracket]

    # Bracket-floor probe (the batch kernel's ``at_low`` screen).
    if pending.size:
        ok_low = decide(pending, low[pending])
        for position in pending[ok_low]:
            outcome[position] = _WIN_HIGH_ONLY
            win[position] = float(low[position])
        pending = pending[~ok_low]

    # Simultaneous bisection on the float64 dyadic grid, decisions on
    # the compressed float32 stacks.
    while pending.size:
        still_open = high[pending] - low[pending] > tolerance
        for position in pending[~still_open]:
            outcome[position] = _WIN_BRACKET
            win[position] = float(high[position])
            lose[position] = float(low[position])
        pending = pending[still_open]
        if not pending.size:
            break
        mid = (low[pending] + high[pending]) / 2.0
        ok_mid = decide(pending, mid)
        iterations[pending] += 1
        high[pending[ok_mid]] = mid[ok_mid]
        low[pending[~ok_mid]] = mid[~ok_mid]

    # One stacked float64 verification call over the original traces:
    # every planned winner must satisfy the commitment and every losing
    # bracket edge (no-fit limits included) must miss it.
    ver_rows: list[int] = []
    ver_caps: list[float] = []
    expect_true: list[bool] = []
    owner: list[int] = []
    for position in range(m):
        row = int(candidate[position])
        if outcome[position] == _NO_FIT:
            ver_rows.append(row)
            ver_caps.append(float(limits[row]))
            expect_true.append(False)
            owner.append(position)
        else:
            ver_rows.append(row)
            ver_caps.append(float(win[position]))
            expect_true.append(True)
            owner.append(position)
            if outcome[position] == _WIN_BRACKET:
                ver_rows.append(row)
                ver_caps.append(float(lose[position]))
                expect_true.append(False)
                owner.append(position)
    verdict, backlog_rows = batch.decide(
        np.asarray(ver_rows, dtype=int),
        np.asarray(ver_caps, dtype=float),
        commitment,
    )
    kernel_calls += 1
    row_evaluations = len(ver_rows)
    confirmed = np.ones(m, dtype=bool)
    for checked, position in enumerate(owner):
        if bool(verdict[checked]) != expect_true[checked]:
            confirmed[position] = False

    bracket_iterations = int(iterations[confirmed].sum())
    for position in np.nonzero(confirmed)[0]:
        row = int(candidate[position])
        fused_rows += 1
        if outcome[position] == _NO_FIT:
            results[row] = RequiredCapacityResult(
                fits=False, required_capacity=infinity, report=None
            )
        else:
            results[row] = RequiredCapacityResult(
                fits=True,
                required_capacity=float(win[position]),
                report=None,
            )

    # Fallback ladder: rows whose trajectory failed verification are
    # re-solved exactly by the batch kernel over the same aggregates.
    retry = np.nonzero(~confirmed)[0]
    if retry.size:
        retry_rows = candidate[retry]
        f32_retries = int(retry.size)
        sub = BatchSimulator(
            batch._cos1[retry_rows], batch._cos2[retry_rows], calendar
        )
        solved = required_capacity_batch(
            sub,
            limits[retry_rows],
            commitment,
            tolerance=tolerance,
            mode="bisect",
        )
        for row, result in zip(retry_rows, solved.results):
            results[int(row)] = result
        kernel_calls += solved.stats.kernel_calls
        bracket_iterations += solved.stats.bracket_iterations
        row_evaluations += solved.stats.row_evaluations
        backlog_rows += solved.stats.backlog_rows

    return BatchSearchResult(
        results=tuple(results),  # type: ignore[arg-type]
        stats=BatchSearchStats(
            rows=n,
            kernel_calls=kernel_calls,
            bracket_iterations=bracket_iterations,
            fused_rows=fused_rows,
            f32_retries=f32_retries,
            row_evaluations=row_evaluations,
            backlog_rows=backlog_rows,
        ),
    )
