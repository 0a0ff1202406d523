"""The capacity search's working memory stays within a fixed budget.

``tracemalloc`` sees numpy's buffers, so the peak it traces while the
planner asks a batch is the batch's working set: the evaluator's own
matrices are built before tracing starts. Each case states its slack
over :data:`~repro.placement.evaluation._BATCH_BYTES` and what the
slack holds.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.cos import CoSCommitment
from repro.placement import evaluation
from repro.placement.correlation import allocation_correlation_matrix
from repro.placement.evaluation import PlacementEvaluator
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar

MIB = 1 << 20


def _pairs(calendar, count, seed):
    rng = np.random.default_rng(seed)
    length = calendar.n_observations
    return [
        CoSAllocationPair(
            f"w{index}",
            AllocationTrace(f"w{index}.cos1", rng.gamma(2.0, 0.2, length), calendar),
            AllocationTrace(f"w{index}.cos2", rng.gamma(1.5, 0.5, length), calendar),
        )
        for index in range(count)
    ]


def _traced_peak(call):
    """Peak bytes traced while ``call`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture(scope="module")
def year_long():
    """12 workloads on a 52-week, 5-minute calendar (104 832 slots)."""
    calendar = TraceCalendar(weeks=52, slot_minutes=5)
    return PlacementEvaluator(
        _pairs(calendar, 12, seed=52), CoSCommitment(theta=0.95), tolerance=0.01
    )


def test_five_thousand_short_rows_stay_in_budget():
    """~5 000 items of 1–8 members on one week of 30-minute slots. Slack:
    4 MiB for the batch's Python objects (keys, answers, memo) and the
    ``decide`` tiles. Unchunked, the screen gathered and the kernel
    aggregated all 5 000 at once."""
    calendar = TraceCalendar(weeks=1, slot_minutes=30)
    evaluator = PlacementEvaluator(
        _pairs(calendar, 60, seed=1), CoSCommitment(theta=0.95), tolerance=0.01
    )
    rng = np.random.default_rng(1)
    items = [
        (16.0, rng.choice(60, size=int(size), replace=False).tolist())
        for size in rng.integers(1, 9, size=5000)
    ]
    peak, answers = _traced_peak(lambda: evaluator.evaluate_groups(items))
    assert sum(answer.fits for answer in answers) > 4000  # aggregated, mostly
    assert peak <= evaluation._BATCH_BYTES + 4 * MIB


def test_wide_subsets_screen_in_budget():
    """1 000 doomed 24-member subsets on one week of hourly slots, where
    the witness screen's gathers, not the aggregated rows, are the
    working set. Slack as above."""
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    evaluator = PlacementEvaluator(
        _pairs(calendar, 40, seed=24), CoSCommitment(theta=0.95), tolerance=0.01
    )
    rng = np.random.default_rng(24)
    items = [
        (16.0, rng.choice(40, size=24, replace=False).tolist())
        for _ in range(1000)
    ]
    peak, answers = _traced_peak(lambda: evaluator.evaluate_groups(items))
    assert not any(answer.fits for answer in answers)
    assert peak <= evaluation._BATCH_BYTES + 4 * MIB


def test_year_long_rows_stay_in_budget(year_long):
    """12 three-member rows, every one aggregated and bisected. Slack:
    six one-row arrays, the working set of a ``decide`` tile, which is
    one row long at this length. Unchunked, all 12 rows were aggregated
    before the first decision."""
    items = [(16.0, [row, (row + 1) % 12, (row + 5) % 12]) for row in range(12)]
    row_bytes = 8 * year_long.calendar.n_observations
    peak, answers = _traced_peak(lambda: year_long.evaluate_groups(items))
    assert all(answer.fits for answer in answers)
    assert peak <= evaluation._BATCH_BYTES + 6 * row_bytes


def test_correlation_holds_one_matrix_and_one_row(year_long):
    """The fresh ``total_allocations`` matrix, one squared row, and 64 KiB
    for the ``(n, n)`` result and the per-row scalars."""
    n, length = year_long.n_workloads, year_long.calendar.n_observations
    peak, _ = _traced_peak(lambda: allocation_correlation_matrix(year_long))
    assert peak <= 8 * (n * length + length) + 64 * 1024
