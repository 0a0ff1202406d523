"""Shared assignment evaluation with caching.

Every placement algorithm (genetic, greedy, bin-packing comparisons)
needs the same primitive: "what is the required capacity of this subset
of workloads on this server?". The :class:`PlacementEvaluator` holds the
workloads' allocation matrices (the translator's own when its pairs are
one translated set, in order: see
:func:`~repro.traces.allocation.allocation_matrices`), runs the
simulator + capacity search, and memoises results by (server capacity
profile, workload subset) — the genetic search re-visits the same
server contents constantly, so the cache is what makes the search
affordable.

Two execution shapes are supported:

* the scalar path (``kernel="scalar"``) runs one subset's binary search
  at a time, exactly as the paper describes it;
* the batch path (:meth:`PlacementEvaluator.evaluate_groups`) stacks
  the cache-missing subsets into
  a :class:`~repro.placement.kernels.BatchSimulator` and solves every
  bracket simultaneously with
  :func:`~repro.placement.kernels.required_capacity_batch` — same
  results, one lock-step array program instead of N Python loops. A
  large batch is screened and solved in consecutive chunks that keep
  its working memory under :data:`_BATCH_BYTES`.
  Before any subset is aggregated, the *witness screen*
  (:func:`_witness_rejects`) judges each at its limit on a few slots
  only: the theta constraint is a conjunction over theta groups, so one
  group that fails it — among the members' hottest — proves the subset
  does not fit, and the kernel never sees it.

Searches that run side by side share their solves. A search written as
a generator (:data:`Steps`) yields an :class:`EvaluationRequest` for
its cache misses (:meth:`PlacementEvaluator.ask`) and is sent the
answers; :func:`lock_step` advances many such searches — the shards of
the hierarchical tier, each with its own evaluator — and answers all of
one step's requests with one screen and one kernel solve per chunk.
Rows never interact, so each search gets exactly what it gets alone;
:func:`drive` runs a single search the same way.

:meth:`PlacementEvaluator.ask` is the one way to fill the cache, so
every answer is counted as a ``placement.cache_hits`` or
``placement.cache_misses``. :class:`EvaluationPayload` is an
evaluator's matrices and settings as one picklable value;
:func:`evaluate_groups_worker` serves only the engine probe of
``benchmarks/record/tracing.py`` and goes in the benchmark PR that
retires that probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Generator, Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.engine.instrumentation import Instrumentation
from repro.core.cos import CoSCommitment
from repro.exceptions import PlacementError
from repro.placement.fused import fused_required_capacity
from repro.placement.kernels import (
    _EPSILON,
    _THETA_SLACK,
    KERNEL_COUNTERS,
    BatchSearchStats,
    BatchSimulator,
    required_capacity_batch,
)
from repro.placement.required_capacity import (
    DEFAULT_TOLERANCE,
    RequiredCapacityResult,
    required_capacity,
)
from repro.placement.simulator import SingleServerSimulator
from repro.resources.server import ServerSpec
from repro.traces.allocation import CoSAllocationPair, allocation_matrices
from repro.traces.calendar import DAYS_PER_WEEK, TraceCalendar

ResultT = TypeVar("ResultT")

#: Capacity-search implementations selectable on the evaluator.
#:
#: * ``"batch"`` — simultaneous bisection, bit-identical to ``"scalar"``;
#: * ``"analytic"`` — batch kernel with the closed-form theta inversion
#:   (results within the search tolerance of the scalar path);
#: * ``"fused"`` — generation-scale float32 fast path over compressed
#:   traces with float64 verification (bit-identical to ``"batch"``;
#:   see :mod:`repro.placement.fused`);
#: * ``"scalar"`` — the paper's per-subset binary search (reference).
KERNELS = ("batch", "analytic", "fused", "scalar")

#: Theta groups per workload the witness screen checks (a theta group is
#: one slot-of-day across the seven days of one week). Fixed by the sweep
#: in DESIGN.md section 9; it only changes how many rows the kernel is
#: spared, never a result.
_WITNESS_GROUPS = 3

#: Bytes of working memory one batch solve may hold beyond the
#: evaluator's own matrices — the batch-level counterpart of
#: :data:`~repro.placement.kernels._TILE_BYTES`.
#: :func:`_evaluate_items_batched` screens and solves its items in
#: consecutive chunks, each sized so that both the chunk's witness-screen
#: gathers and its aggregated rows stay under it. Fixed by the sweep in
#: DESIGN.md section 9; rows never interact, so a chunk only changes how
#: many ``decide`` calls a batch takes, never a result.
_BATCH_BYTES = 8 << 20

#: Float64 arrays per slot of one aggregated row: CoS1, CoS2 and the
#: arrival cumsum :class:`BatchSimulator` fills on first use.
_ROW_ARRAYS = 3

#: Word-sized arrays the witness screen holds per gathered slot (the
#: slot indices, the flat offsets, both sums and one gather's copies).
_SCREEN_ARRAYS = 6


def _solver_mode(kernel: str) -> str:
    """Map an evaluator kernel name to the batch solver's mode."""
    return "analytic" if kernel == "analytic" else "bisect"


@dataclass(frozen=True)
class ServerEvaluation:
    """Required capacity of one workload subset on one server."""

    fits: bool
    required: float
    utilization: float

    @property
    def feasible(self) -> bool:
        return self.fits


#: Memoisation key: (server capacity, canonically sorted subset rows).
GroupKey = tuple[float, tuple[int, ...]]

#: One batched work item: (capacity limit, sorted rows, ``None``). The
#: third slot carries nothing; ``benchmarks/record/tracing.py``'s engine
#: probe builds these triples itself, so the slot goes in the benchmark
#: PR that retires that probe.
GroupItem = tuple[float, "tuple[int, ...]", None]


@dataclass(frozen=True)
class EvaluationPayload:
    """Everything a solve needs to evaluate one evaluator's subsets.

    ``cos1``/``cos2`` are the stacked per-workload allocation matrices.
    Picklable, so ``benchmarks/record/tracing.py``'s engine probe also
    broadcasts it to workers.
    """

    cos1: np.ndarray
    cos2: np.ndarray
    calendar: TraceCalendar
    commitment: CoSCommitment
    tolerance: float
    kernel: str = "batch"
    #: :func:`witness_slots` of the matrices; ``None`` for ``"scalar"``.
    witness: Optional[np.ndarray] = None


_REJECTED = ServerEvaluation(
    fits=False, required=float("inf"), utilization=float("inf")
)
_EMPTY = ServerEvaluation(fits=True, required=0.0, utilization=0.0)


def witness_slots(
    cos1: np.ndarray, cos2: np.ndarray, calendar: TraceCalendar
) -> np.ndarray:
    """Slot indices of each workload's hottest theta groups, ``(n, k, 7)``.

    Groups are ranked by the workload's peak total allocation over the
    group's seven slots (ties: earliest group first); ``k`` is
    :data:`_WITNESS_GROUPS`, or every group of a shorter calendar. Built
    one workload at a time, so no ``(n, T)`` temporary.
    """
    weeks, per_day = calendar.weeks, calendar.slots_per_day
    k = min(_WITNESS_GROUPS, weeks * per_day)
    days = np.arange(DAYS_PER_WEEK) * per_day
    table = np.empty((cos1.shape[0], k, DAYS_PER_WEEK), dtype=np.intp)
    for row, (first, second) in enumerate(zip(cos1, cos2)):
        peaks = (first + second).reshape(weeks, DAYS_PER_WEEK, per_day).max(axis=1)
        peaks = peaks.ravel()
        # Only groups at or above the k-th largest peak can rank; sorting
        # just those (stably, in group order) keeps the ties' order.
        kth = np.partition(peaks, peaks.size - k)[peaks.size - k]
        contenders = np.nonzero(peaks >= kth)[0]
        hottest = contenders[np.argsort(-peaks[contenders], kind="stable")[:k]]
        week, slot = np.divmod(hottest, per_day)
        table[row] = (week * (DAYS_PER_WEEK * per_day) + slot)[:, None] + days
    return table


def _witness_rejects(
    cos1: np.ndarray,
    cos2: np.ndarray,
    witness: np.ndarray,
    subsets: Sequence[Sequence[int]],
    limits: np.ndarray,
    commitment: CoSCommitment,
) -> np.ndarray:
    """Which subsets a witness group proves infeasible at their limit.

    Each subset is judged on its members' witness groups only: the
    members' values at those slots are added in subset order (the
    additions of :meth:`BatchSimulator.from_subsets`), then a row is
    rejected if a slot's CoS1 exceeds the limit (so does the CoS1 peak)
    or a group's satisfied / requested ratio falls below the theta floor
    (so does the minimum over all groups) — the floats
    :meth:`BatchSimulator.decide` computes at those slots, by the same
    operations in the same order, so a rejected row is one ``decide``
    rejects at its limit. Days sit on the middle axis, as in
    :func:`~repro.placement.kernels._theta_rows`.
    """
    sizes = np.fromiter((len(rows) for rows in subsets), dtype=np.intp)
    # Longest subsets first, so the rows that have a member at a given
    # position are a prefix; short subsets repeat their first member's
    # groups, so every row has the same group count.
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    width = int(sizes[0])
    members = np.array(
        [
            tuple(rows) + (rows[0],) * (width - len(rows))
            for rows in (subsets[index] for index in order)
        ],
        dtype=np.intp,
    )
    slots = witness[members].reshape(len(subsets), -1, DAYS_PER_WEEK)
    slots = slots.transpose(0, 2, 1)
    # Flat offsets into the C-contiguous matrices: one ``take`` per gather.
    offsets = members * cos1.shape[1]
    flat1, flat2 = cos1.reshape(-1), cos2.reshape(-1)
    index = offsets[:, :1, None] + slots
    cos1_at = flat1.take(index)
    cos2_at = flat2.take(index)
    for position in range(1, width):
        count = int(np.count_nonzero(sizes > position))
        index = offsets[:count, position, None, None] + slots[:count]
        cos1_at[:count] += flat1.take(index)
        cos2_at[:count] += flat2.take(index)
    caps = limits[order][:, None, None]
    over_peak = (cos1_at > caps + _EPSILON).any(axis=(1, 2))
    available = np.subtract(caps, cos1_at, out=cos1_at)
    np.maximum(0.0, available, out=available)
    satisfied = np.minimum(cos2_at, available).sum(axis=1)
    requested = cos2_at.sum(axis=1)
    ratios = np.ones_like(requested)
    np.divide(satisfied, requested, out=ratios, where=requested > 0)
    below_theta = (ratios < commitment.theta - _THETA_SLACK).any(axis=1)
    rejected = np.empty(len(subsets), dtype=bool)
    rejected[order] = over_peak | below_theta
    return rejected


def _evaluation_from_result(
    result: RequiredCapacityResult, limit: float
) -> ServerEvaluation:
    if not result.fits:
        return _REJECTED
    return ServerEvaluation(
        fits=True,
        required=result.required_capacity,
        utilization=min(1.0, result.required_capacity / limit),
    )


def _evaluate_rows(
    payload: EvaluationPayload, rows: Sequence[int], limit: float
) -> ServerEvaluation:
    """Scalar evaluation of one canonically-sorted subset at one limit."""
    index = np.asarray(rows, dtype=int)
    simulator = SingleServerSimulator(
        payload.cos1[index].sum(axis=0),
        payload.cos2[index].sum(axis=0),
        payload.calendar,
    )
    result = required_capacity(
        [],
        capacity_limit=limit,
        commitment=payload.commitment,
        tolerance=payload.tolerance,
        simulator=simulator,
    )
    return _evaluation_from_result(result, limit)


def _chunks(
    items: Sequence[GroupItem], length: int, groups: int
) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of consecutive runs of ``items`` within budget.

    A run of ``m`` items whose widest subset has ``w`` members costs
    ``m × max(row, w × member)`` bytes: ``row`` for one aggregated row of
    ``length`` slots, ``member`` for one member's witness gathers (the
    screen pads every subset of the run to ``w``). Every run holds at
    least one item, however long its rows.
    """
    row = _ROW_ARRAYS * 8 * (length + 1)
    member = _SCREEN_ARRAYS * 8 * DAYS_PER_WEEK * groups
    start = width = 0
    for stop, (_, rows, _) in enumerate(items):
        width = max(width, len(rows))
        if stop > start and (stop + 1 - start) * max(
            row, width * member
        ) > _BATCH_BYTES:
            yield start, stop
            start, width = stop, len(rows)
    if items:
        yield start, len(items)


def _evaluate_items_batched(
    parts: Sequence[tuple[EvaluationPayload, Sequence[GroupItem]]],
) -> tuple[list[list[ServerEvaluation]], BatchSearchStats]:
    """Solve every part's items, a budget-sized chunk at a time.

    A part is one evaluator's state and the items it asks; the parts
    share their commitment, tolerance, calendar and kernel. Their items
    are taken in order as one sequence and cut into chunks
    (:func:`_chunks`, :data:`_BATCH_BYTES`). In each chunk every part's
    items are screened against that part's own matrices and witness
    table, then the survivors of all parts are aggregated and solved in
    one batched kernel solve; rows never interact, so each answer is
    what its part alone would get. Items the witness screen rejects are
    answered ``fits=False`` — what the kernel's at-limit screen would
    say — without being aggregated. The fused kernel solves one part at
    a time. Returns each part's evaluations, in item order, and the
    chunks' stats summed field by field: ``stats.rows`` counts every
    item, ``stats.witness_rejects`` the ones the kernel was spared, and
    only ``stats.kernel_calls`` depends on where the chunks split.
    """
    first = parts[0][0]
    calendar, commitment, kernel = first.calendar, first.commitment, first.kernel
    if kernel == "fused" and len(parts) > 1:
        raise PlacementError("the fused kernel solves one part at a time")
    owners = [payload for payload, items in parts for _ in items]
    items = [item for _, part_items in parts for item in part_items]
    bounds = list(accumulate((len(part) for _, part in parts), initial=0))
    evaluations = [_REJECTED] * len(items)
    stats = [BatchSearchStats(rows=0)]
    survived = 0
    for start, stop in _chunks(
        items, calendar.n_observations, first.witness.shape[1]
    ):
        subsets = [rows for _, rows, _ in items[start:stop]]
        limits = np.asarray(
            [limit for limit, _, _ in items[start:stop]], dtype=float
        )
        rejected = np.zeros(stop - start, dtype=bool)
        for (payload, _), low, high in zip(parts, bounds, bounds[1:]):
            low, high = max(low, start) - start, min(high, stop) - start
            if low < high:
                rejected[low:high] = _witness_rejects(
                    payload.cos1,
                    payload.cos2,
                    payload.witness,
                    subsets[low:high],
                    limits[low:high],
                    commitment,
                )
        # A non-positive limit is the kernel's error to raise, not a reject.
        survivors = np.nonzero(~(rejected & (limits > 0)))[0]
        survived += int(survivors.size)
        if not survivors.size:
            continue
        kept = [subsets[index] for index in survivors]
        kept_limits = limits[survivors]
        if kernel == "fused":
            solved = fused_required_capacity(
                first.cos1,
                first.cos2,
                kept,
                calendar,
                kept_limits,
                commitment,
                tolerance=first.tolerance,
            )
        else:
            sources = [owners[start + index] for index in survivors]
            batch = BatchSimulator.from_subsets(
                [source.cos1 for source in sources],
                [source.cos2 for source in sources],
                kept,
                calendar,
            )
            solved = required_capacity_batch(
                batch,
                kept_limits,
                commitment,
                tolerance=first.tolerance,
                mode=_solver_mode(kernel),
            )
            # Free this chunk's rows before the next chunk aggregates.
            del batch
        for index, result, limit in zip(
            survivors.tolist(), solved.results, kept_limits.tolist()
        ):
            evaluations[start + index] = _evaluation_from_result(result, limit)
        stats.append(solved.stats)
    return [
        evaluations[low:high] for low, high in zip(bounds, bounds[1:])
    ], BatchSearchStats(*map(sum, zip(*stats)))._replace(
        rows=len(items), witness_rejects=len(items) - survived
    )


def evaluate_groups_worker(
    payload: EvaluationPayload, items: tuple[GroupItem, ...]
) -> tuple[tuple[ServerEvaluation, ...], BatchSearchStats]:
    """Executor work unit: a whole chunk of subsets in one kernel solve.

    Returns the evaluations in item order plus the solver's work stats
    (in :data:`KERNEL_COUNTERS` order). Honours the payload's ``kernel``
    selection — ``"scalar"`` runs the per-subset reference loop instead.
    No planning path calls it: it is the work unit of
    ``benchmarks/record/tracing.py``'s engine probe, and goes in the
    benchmark PR that retires that probe.
    """
    if payload.kernel == "scalar":
        evaluations = tuple(
            _evaluate_rows(payload, rows, limit) for limit, rows, _ in items
        )
        return evaluations, BatchSearchStats(rows=len(items))
    (evaluations,), stats = _evaluate_items_batched(((payload, items),))
    return tuple(evaluations), stats


@dataclass(frozen=True)
class EvaluationRequest:
    """One evaluator's cache misses, waiting for their step's solve."""

    evaluator: "PlacementEvaluator"
    keys: tuple[GroupKey, ...]


#: A search in lock-step form: a generator that yields each
#: :class:`EvaluationRequest` it needs answered, is sent the request's
#: evaluations (in key order) and returns the search's result. Run one
#: with :func:`drive`, several side by side with :func:`lock_step`.
Steps = Generator[EvaluationRequest, list[ServerEvaluation], ResultT]


def drive(steps: Steps[ResultT]) -> ResultT:
    """Run one search to its result: :func:`lock_step` with one participant."""
    (result,), _ = lock_step((steps,))
    return result


def lock_step(
    participants: Sequence[Steps[ResultT]],
) -> tuple[list[ResultT], list[float]]:
    """Run searches side by side, answering each step's requests together.

    Every tick advances each live participant to its next request, then
    :func:`_answer` solves all of the tick's requests at once — one
    witness screen and one kernel solve per chunk for the requests whose
    settings agree. Rows never interact and each participant's own
    requests keep their order, so every participant returns what it
    returns alone. An exception a participant raises propagates.

    Returns each participant's result and its seconds: the time spent
    advancing it plus its row share of each solve, so the seconds of
    all participants add up to no more than the call's wall time.
    """
    clock = time.perf_counter
    results: list = [None] * len(participants)
    seconds = [0.0] * len(participants)
    answers: dict[int, Optional[list[ServerEvaluation]]] = dict.fromkeys(
        range(len(participants))
    )
    while answers:
        requests: dict[int, EvaluationRequest] = {}
        for index, answer in answers.items():
            start = clock()
            try:
                requests[index] = participants[index].send(answer)
            except StopIteration as done:
                results[index] = done.value
            seconds[index] += clock() - start
        if not requests:
            break
        start = clock()
        solved = _answer(list(requests.values()))
        share = (clock() - start) / sum(
            len(request.keys) for request in requests.values()
        )
        answers = {}
        for (index, request), evaluations in zip(requests.items(), solved):
            answers[index] = evaluations
            seconds[index] += share * len(request.keys)
    return results, seconds


def _answer(
    requests: Sequence[EvaluationRequest],
) -> list[list[ServerEvaluation]]:
    """Evaluations for one tick's requests, in request and key order.

    ``"batch"`` and ``"analytic"`` requests with equal commitment,
    tolerance, calendar and kernel share one :func:`_evaluate_items_batched`
    call, whose kernel stats are recorded once, on the first of their
    evaluators; ``"fused"`` and ``"scalar"`` requests are solved one by
    one. Empty subsets need no solve: they fit at zero capacity.
    """
    # Per merge: (request index, the items of its non-empty keys).
    merges: dict[tuple, list[tuple[int, list[GroupItem]]]] = {}
    for index, request in enumerate(requests):
        items = [(limit, rows, None) for limit, rows in request.keys if rows]
        if not items:
            continue
        evaluator = request.evaluator
        settings: tuple = (
            evaluator.commitment,
            evaluator.tolerance,
            evaluator.calendar,
            evaluator.kernel,
        )
        if evaluator.kernel in ("fused", "scalar"):
            settings = (index,)
        merges.setdefault(settings, []).append((index, items))
    solved: list[list[ServerEvaluation]] = [[] for _ in requests]
    for merged in merges.values():
        first = requests[merged[0][0]].evaluator
        if first.kernel == "scalar":
            ((index, items),) = merged
            solved[index] = [
                _evaluate_rows(first.worker_payload(), rows, limit)
                for limit, rows, _ in items
            ]
            continue
        evaluations, stats = _evaluate_items_batched(
            [
                (requests[index].evaluator.worker_payload(), items)
                for index, items in merged
            ]
        )
        first.record_search_stats(stats)
        for (index, _), answers in zip(merged, evaluations):
            solved[index] = answers
    return [
        [next(answers) if rows else _EMPTY for _, rows in request.keys]
        for request, answers in zip(requests, map(iter, solved))
    ]


class PlacementEvaluator:
    """Evaluates workload subsets against server capacities, with memoing."""

    def __init__(
        self,
        pairs: Sequence[CoSAllocationPair],
        commitment: CoSCommitment,
        tolerance: float = DEFAULT_TOLERANCE,
        *,
        kernel: str = "batch",
        instrumentation: Optional[Instrumentation] = None,
    ):
        if not pairs:
            raise PlacementError("need at least one workload to place")
        if kernel not in KERNELS:
            raise PlacementError(
                f"unknown capacity-search kernel {kernel!r}; "
                f"expected one of {KERNELS}"
            )
        names = [pair.name for pair in pairs]
        if len(set(names)) != len(names):
            raise PlacementError("workload names must be unique")
        self.pairs = list(pairs)
        self.names = names
        self._index_by_name = {name: index for index, name in enumerate(names)}
        self.commitment = commitment
        self.tolerance = tolerance
        self.kernel = kernel
        self.instrumentation = instrumentation
        self.calendar: TraceCalendar = pairs[0].calendar
        for pair in pairs:
            self.calendar.require_compatible(pair.calendar)
        self._cos1, self._cos2 = allocation_matrices(self.pairs)
        self._witness = (
            None
            if kernel == "scalar"
            else witness_slots(self._cos1, self._cos2, self.calendar)
        )
        self._payload = EvaluationPayload(
            cos1=self._cos1,
            cos2=self._cos2,
            calendar=self.calendar,
            commitment=commitment,
            tolerance=tolerance,
            kernel=kernel,
            witness=self._witness,
        )
        self._cache: dict[GroupKey, ServerEvaluation] = {}
        self._peaks: Optional[np.ndarray] = None

    @property
    def n_workloads(self) -> int:
        return len(self.pairs)

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise PlacementError(f"unknown workload {name!r}") from None

    @property
    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``(n, T)`` CoS1 and CoS2 allocation matrices."""
        return self._cos1, self._cos2

    def peak_allocations(self) -> np.ndarray:
        """Per-workload peak total allocation (the C_peak contributions).

        Computed once per evaluator, a row at a time (no ``(n, T)``
        temporary); the array is read-only.
        """
        if self._peaks is None:
            self._peaks = np.array(
                [
                    (first + second).max()
                    for first, second in zip(self._cos1, self._cos2)
                ],
                dtype=float,
            )
            self._peaks.setflags(write=False)
        return self._peaks

    def evaluate_group(
        self,
        indices: Sequence[int],
        server: ServerSpec,
        attribute: str = "cpu",
    ) -> ServerEvaluation:
        """Required capacity of the workloads ``indices`` on ``server``."""
        return self.evaluate_groups(
            [(server.capacity_of(attribute), indices)]
        )[0]

    def evaluate_groups(
        self, items: Sequence[tuple[float, Sequence[int]]]
    ) -> list[ServerEvaluation]:
        """Evaluate many ``(capacity limit, subset)`` items at once.

        Cache-hitting items are answered from the memo; the misses are
        stacked into a :class:`BatchSimulator` and solved by simultaneous
        bisection (in chunks within :data:`_BATCH_BYTES`), then installed
        in the cache. Results
        are identical to asking for the items one by one, and so are
        the counters: a key repeated within the batch is a hit, so hits
        plus misses is the number of items asked.
        """
        return drive(self.ask(items))

    def ask(
        self, items: Sequence[tuple[float, Sequence[int]]]
    ) -> Steps[list[ServerEvaluation]]:
        """:meth:`evaluate_groups` as a lock-step search (see :data:`Steps`).

        Looks the items up in the memo (counting hits and misses), yields
        one request for the misses if there are any, installs the
        answers it is sent, and returns every item's evaluation.
        """
        keys = [
            (float(limit), self._canonical_rows(rows))
            for limit, rows in items
        ]
        missing = dict.fromkeys(key for key in keys if key not in self._cache)
        # One count per request, not per key; a zero total is skipped,
        # so a counter exists only once some key was a hit (or a miss).
        if missing:
            self._count("placement.cache_misses", len(missing))
        if len(keys) > len(missing):
            self._count("placement.cache_hits", len(keys) - len(missing))
        if missing:
            answers = yield EvaluationRequest(self, tuple(missing))
            self._cache.update(zip(missing, answers))
        return [self._cache[key] for key in keys]

    def record_search_stats(self, stats: BatchSearchStats) -> None:
        """Fold one batch solve's work accounting into the counters.

        Every ``kernel.*`` counter is recorded on every call — zero
        increments included — so all kernel modes surface the same
        counter set in :meth:`Instrumentation.counters_since` deltas
        (the fused counters simply stay at zero for the other modes).
        """
        for name, value in zip(KERNEL_COUNTERS, stats):
            self._count(name, value)

    def worker_payload(self) -> EvaluationPayload:
        """The matrices and settings a solve needs, as one picklable value."""
        return self._payload

    def search_result(
        self,
        indices: Sequence[int],
        server: ServerSpec,
        attribute: str = "cpu",
    ) -> RequiredCapacityResult:
        """Full (uncached) search result, including the access report."""
        simulator = self._simulator_for(list(indices))
        return required_capacity(
            [],
            capacity_limit=server.capacity_of(attribute),
            commitment=self.commitment,
            tolerance=self.tolerance,
            simulator=simulator,
        )

    def _canonical_rows(self, indices: Sequence[int]) -> tuple[int, ...]:
        rows = tuple(sorted({int(index) for index in indices}))
        if rows and (rows[0] < 0 or rows[-1] >= self.n_workloads):
            raise PlacementError(f"workload indices out of range: {indices}")
        return rows

    def _count(self, name: str, increment: float = 1) -> None:
        if self.instrumentation is not None:
            self.instrumentation.count(name, increment)

    def _simulator_for(self, indices: list[int]) -> SingleServerSimulator:
        if not indices:
            raise PlacementError("cannot build a simulator for no workloads")
        rows = np.asarray(self._canonical_rows(indices), dtype=int)
        cos1 = self._cos1[rows].sum(axis=0)
        cos2 = self._cos2[rows].sum(axis=0)
        return SingleServerSimulator(cos1, cos2, self.calendar)
