"""Tests for correlation-aware placement seeding."""

import numpy as np
import pytest

from repro.core.cos import CoSCommitment
from repro.exceptions import InfeasiblePlacementError
from repro.placement import correlation
from repro.placement.correlation import (
    allocation_correlation_matrix,
    correlation_aware_seed,
)
from repro.placement.evaluation import PlacementEvaluator
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def pair_from(cal, name, values):
    n = cal.n_observations
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.c1", np.zeros(n), cal),
        AllocationTrace(f"{name}.c2", values, cal),
    )


def day_night_pairs(cal, scale=6.0):
    """Two day-shift workloads and two night-shift workloads."""
    n = cal.n_observations
    t = np.arange(n)
    day = scale * (0.55 + 0.45 * np.sin(2 * np.pi * t / 24))
    night = scale * (0.55 - 0.45 * np.sin(2 * np.pi * t / 24))
    return [
        pair_from(cal, "day-a", day),
        pair_from(cal, "day-b", day * 0.9),
        pair_from(cal, "night-a", night),
        pair_from(cal, "night-b", night * 0.9),
    ]


class TestCorrelationMatrix:
    def test_diagonal_ones(self, cal):
        evaluator = PlacementEvaluator(
            day_night_pairs(cal), CoSCommitment(theta=0.9)
        )
        matrix = allocation_correlation_matrix(evaluator)
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_symmetric(self, cal):
        evaluator = PlacementEvaluator(
            day_night_pairs(cal), CoSCommitment(theta=0.9)
        )
        matrix = allocation_correlation_matrix(evaluator)
        np.testing.assert_allclose(matrix, matrix.T)

    def test_day_day_positive_day_night_negative(self, cal):
        evaluator = PlacementEvaluator(
            day_night_pairs(cal), CoSCommitment(theta=0.9)
        )
        matrix = allocation_correlation_matrix(evaluator)
        assert matrix[0, 1] > 0.9   # day-a vs day-b
        assert matrix[0, 2] < -0.9  # day-a vs night-a

    def test_constant_series_zero_correlation(self, cal):
        n = cal.n_observations
        pairs = [
            pair_from(cal, "flat", np.full(n, 2.0)),
            pair_from(cal, "vary", 2.0 + np.sin(np.arange(n))),
        ]
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        matrix = allocation_correlation_matrix(evaluator)
        assert matrix[0, 1] == 0.0


def full_matrix_correlation(evaluator):
    """The full-matrix formulas before rows were taken one at a time:
    the oracle the in-place centring and row norms must equal bit for
    bit (a norm's last bits pick servers)."""
    cos1, cos2 = evaluator.matrices
    totals = cos1 + cos2
    n = totals.shape[0]
    centered = totals - totals.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    matrix = np.zeros((n, n))
    for row in range(n):
        if norms[row] == 0:
            continue
        for column in range(row + 1, n):
            if norms[column] == 0:
                continue
            value = float(
                centered[row] @ centered[column] / (norms[row] * norms[column])
            )
            matrix[row, column] = value
            matrix[column, row] = value
    np.fill_diagonal(matrix, 1.0)
    return matrix, totals.max(axis=1)


def _random_pairs(cal, rows, rng, low=-9.0, high=6.0):
    n = cal.n_observations
    return [
        CoSAllocationPair(
            f"w{index}",
            AllocationTrace(f"w{index}.c1", 10.0 ** rng.uniform(low, high, n), cal),
            AllocationTrace(f"w{index}.c2", 10.0 ** rng.uniform(low, high, n), cal),
        )
        for index in range(rows)
    ]


def _oracle_cases():
    hourly = TraceCalendar(weeks=1, slot_minutes=60)
    n = hourly.n_observations
    rng = np.random.default_rng(2006)
    yield "constant", [
        pair_from(hourly, "flat", np.full(n, 2.0)),
        pair_from(hourly, "flat-too", np.full(n, 0.3)),
        *_random_pairs(hourly, 3, rng),
    ]
    yield "all_zero", [
        pair_from(hourly, "idle", np.zeros(n)),
        *_random_pairs(hourly, 3, rng),
    ]
    for seed in range(8):
        yield f"magnitudes_{seed}", _random_pairs(
            hourly, 12, np.random.default_rng(seed)
        )
    yield "one_workload", _random_pairs(hourly, 1, rng)
    yield "52_weeks", _random_pairs(
        TraceCalendar(weeks=52, slot_minutes=5), 3, rng, low=-3.0, high=2.0
    )


ORACLE_CASES = dict(_oracle_cases())


#: Rows per block under test: the block budget is patched to this many
#: rows of the case's length.
BLOCK = 4


def _block_cases():
    """Row counts around the block size, with constant rows at the
    boundaries (their zero norms skip whole blocks or single pairs)."""
    hourly = TraceCalendar(weeks=1, slot_minutes=60)
    n = hourly.n_observations
    for rows in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        yield f"{rows}_rows", _random_pairs(
            hourly, rows, np.random.default_rng(rows)
        )
    pairs = _random_pairs(hourly, 2 * BLOCK + 1, np.random.default_rng(9))
    for row in (BLOCK - 1, BLOCK):
        pairs[row] = pair_from(hourly, f"flat{row}", np.full(n, 1.5))
    yield "constant_at_a_boundary", pairs
    flat = [pair_from(hourly, f"idle{row}", np.zeros(n)) for row in range(BLOCK)]
    yield "a_block_of_constants", flat + _random_pairs(
        hourly, BLOCK + 1, np.random.default_rng(10)
    )


BLOCK_CASES = dict(_block_cases())


class TestRowAtATimeIsTheFullMatrix:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bit_identical_to_the_full_matrix_formulas(self, case):
        evaluator = PlacementEvaluator(
            ORACLE_CASES[case], CoSCommitment(theta=0.9)
        )
        matrix, peaks = full_matrix_correlation(evaluator)
        assert np.array_equal(allocation_correlation_matrix(evaluator), matrix)
        assert np.array_equal(evaluator.peak_allocations(), peaks)

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_of_any_size_give_the_same_floats(self, case, monkeypatch):
        evaluator = PlacementEvaluator(BLOCK_CASES[case], CoSCommitment(theta=0.9))
        matrix, _ = full_matrix_correlation(evaluator)
        length = evaluator.calendar.n_observations
        for rows in (1, BLOCK, evaluator.n_workloads):
            monkeypatch.setattr(correlation, "_TILE_BYTES", rows * 8 * length)
            blocked = allocation_correlation_matrix(evaluator)
            assert blocked.tobytes() == matrix.tobytes(), rows

    def test_year_long_rows_take_one_row_blocks(self):
        """At the production budget a 52-week, 5-minute row is a block on
        its own, so every pair of the ``52_weeks`` case above crossed two
        one-row blocks."""
        length = TraceCalendar(weeks=52, slot_minutes=5).n_observations
        assert 8 * length > correlation._TILE_BYTES
        assert len(ORACLE_CASES["52_weeks"]) > 2


class TestCorrelationAwareSeed:
    def test_pairs_day_with_night(self, cal):
        """Each server should host one day and one night workload when
        the peaks are sized so two same-shift workloads cannot share."""
        pairs = day_night_pairs(cal, scale=10.0)
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.99))
        pool = ResourcePool(homogeneous_servers(4, cpus=16))
        assignment = correlation_aware_seed(evaluator, pool)
        groups: dict[int, list[str]] = {}
        for index, server in enumerate(assignment):
            groups.setdefault(server, []).append(evaluator.names[index])
        # Two servers, each mixing shifts.
        assert len(groups) == 2
        for names in groups.values():
            shifts = {name.split("-")[0] for name in names}
            assert shifts == {"day", "night"}

    def test_feasibility_respected(self, cal):
        pairs = day_night_pairs(cal)
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        pool = ResourcePool(homogeneous_servers(4, cpus=16))
        assignment = correlation_aware_seed(evaluator, pool)
        servers = list(pool.servers)
        groups: dict[int, list[int]] = {}
        for index, server in enumerate(assignment):
            groups.setdefault(server, []).append(index)
        for server_index, indices in groups.items():
            assert evaluator.evaluate_group(
                indices, servers[server_index]
            ).fits

    def test_infeasible_raises(self, cal):
        n = cal.n_observations
        pairs = [pair_from(cal, "big", np.full(n, 40.0))]
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.99))
        pool = ResourcePool(homogeneous_servers(1, cpus=16))
        with pytest.raises(InfeasiblePlacementError):
            correlation_aware_seed(evaluator, pool)

    def test_seed_usable_by_genetic_search(self, cal):
        from repro.placement.genetic import (
            GeneticPlacementSearch,
            GeneticSearchConfig,
        )

        pairs = day_night_pairs(cal)
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        pool = ResourcePool(homogeneous_servers(4, cpus=16))
        seed = correlation_aware_seed(evaluator, pool)
        search = GeneticPlacementSearch(
            evaluator,
            pool,
            GeneticSearchConfig(
                seed=0, max_generations=4, stall_generations=2,
                population_size=6,
            ),
        )
        result = search.run(seed)
        assert result.best.feasible
        assert result.best.score >= search.evaluate(seed).score - 1e-9
