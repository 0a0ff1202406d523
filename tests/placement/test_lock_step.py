"""Searches planned side by side get what they get alone.

:func:`repro.placement.evaluation.lock_step` answers the requests of
several searches with one solve per step; the hierarchical tier plans
every shard of a unit that way. Rows never interact, so neither the
merged solve nor the unit a shard runs in may change an answer.
"""

import time

import numpy as np
import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import case_study_qos
from repro.core.translation import QoSTranslator
from repro.engine.instrumentation import Instrumentation
from repro.placement import evaluation
from repro.placement.evaluation import PlacementEvaluator, lock_step
from repro.placement.genetic import GeneticSearchConfig
from repro.placement.kernels import BatchSimulator
from repro.placement.sharding import (
    _ShardItem,
    _ShardPlanPayload,
    _shard_plan_worker,
    derive_shard_seed,
)
from repro.resources.server import homogeneous_servers
from repro.workloads.ensemble import scaled_ensemble

COMMITMENT = PoolCommitments.of(theta=0.95).cos2


def _pairs(seed, n_apps, slot_minutes=30):
    demands = scaled_ensemble(n_apps, seed=seed, weeks=1, slot_minutes=slot_minutes)
    translator = QoSTranslator(PoolCommitments.of(theta=0.95))
    qos = case_study_qos(m_degr_percent=0)
    return [translator.translate(demand, qos).pair for demand in demands]


def _items(n_workloads, limits, count, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            float(rng.choice(limits)),
            tuple(
                sorted(
                    int(row)
                    for row in rng.choice(n_workloads, size=int(size), replace=False)
                )
            ),
        )
        for size in rng.integers(1, 8, size=count)
    ]


class TestMergedSolve:
    """Two evaluators, different pairs and limits, one solve."""

    @pytest.fixture(scope="class")
    def problems(self):
        first, second = _pairs(2006, 18), _pairs(2007, 12)
        return (
            (first, _items(len(first), [8.0, 16.0, 24.0], 120, seed=1)),
            (second, _items(len(second), [12.0, 20.0], 90, seed=2)),
        )

    @staticmethod
    def _alone(problems, **settings):
        return [
            PlacementEvaluator(pairs, COMMITMENT, **settings).evaluate_groups(items)
            for pairs, items in problems
        ]

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        batched = evaluation._evaluate_items_batched

        def spy(parts):
            calls.append([len(items) for _, items in parts])
            return batched(parts)

        monkeypatch.setattr(evaluation, "_evaluate_items_batched", spy)
        return calls

    @pytest.mark.parametrize("budget", ["one item", "one tile", "whole batch"])
    def test_one_solve_answers_each_evaluator_as_alone(
        self, problems, budget, monkeypatch
    ):
        alone = self._alone(problems)
        length = problems[0][0][0].calendar.n_observations
        row_bytes = evaluation._ROW_ARRAYS * 8 * (length + 1)
        tile = BatchSimulator(
            np.zeros((1, length)),
            np.zeros((1, length)),
            problems[0][0][0].calendar,
        )._tile_rows
        budgets = {"one item": 1, "one tile": tile * row_bytes}
        if budget in budgets:
            monkeypatch.setattr(evaluation, "_BATCH_BYTES", budgets[budget])
        calls = self._spy(monkeypatch)
        sinks = [Instrumentation(), Instrumentation()]
        evaluators = [
            PlacementEvaluator(pairs, COMMITMENT, instrumentation=sink)
            for (pairs, _), sink in zip(problems, sinks)
        ]
        start = time.perf_counter()
        results, seconds = lock_step(
            [
                evaluator.ask(items)
                for evaluator, (_, items) in zip(evaluators, problems)
            ]
        )
        wall = time.perf_counter() - start
        assert results == alone
        # Each participant's seconds: its own steps plus its row share
        # of the merged solve, together no more than the call took.
        assert all(elapsed > 0 for elapsed in seconds)
        assert sum(seconds) <= wall
        misses = [len(set(items)) for _, items in problems]
        assert calls == [misses]
        # The merged solve's stats are recorded once, on the first.
        first, second = (sink.counters() for sink in sinks)
        assert first["kernel.rows"] == sum(misses)
        assert not any(name.startswith("kernel.") for name in second)
        assert [
            counters["placement.cache_misses"] for counters in (first, second)
        ] == misses

    @pytest.mark.parametrize(
        "settings", [dict(kernel="fused"), dict(tolerance=0.02)]
    )
    def test_different_settings_are_solved_apart(
        self, problems, settings, monkeypatch
    ):
        calls = self._spy(monkeypatch)
        alone = [
            PlacementEvaluator(problems[0][0], COMMITMENT).evaluate_groups(
                problems[0][1]
            ),
            PlacementEvaluator(
                problems[1][0], COMMITMENT, **settings
            ).evaluate_groups(problems[1][1]),
        ]
        calls.clear()
        evaluators = [
            PlacementEvaluator(problems[0][0], COMMITMENT),
            PlacementEvaluator(problems[1][0], COMMITMENT, **settings),
        ]
        results, _ = lock_step(
            [
                evaluator.ask(items)
                for evaluator, (_, items) in zip(evaluators, problems)
            ]
        )
        assert results == alone
        assert len(calls) == 2


SEARCH = GeneticSearchConfig(
    seed=5, max_generations=6, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def payload():
    return _ShardPlanPayload(
        pairs=tuple(_pairs(2006, 24, slot_minutes=60)),
        servers=tuple(homogeneous_servers(12, cpus=16)),
        commitment=COMMITMENT,
        config=SEARCH,
        tolerance=0.01,
        attribute="cpu",
        algorithm="genetic",
        kernel="batch",
    )


def _shard_items(infeasible):
    """Three shards of eight workloads on four servers each; the
    infeasible variant squeezes the middle shard onto one server."""
    servers = [(0, 1, 2, 3), (4,) if infeasible else (4, 5, 6, 7), (8, 9, 10, 11)]
    return tuple(
        _ShardItem(
            index=index,
            workload_rows=tuple(range(8 * index, 8 * index + 8)),
            server_rows=rows,
            seed=derive_shard_seed(SEARCH.seed, index),
        )
        for index, rows in enumerate(servers)
    )


_PER_SHARD = (
    "placement.cache_hits",
    "placement.cache_misses",
    "placement.ga_generations",
    "placement.consolidations",
)
_PER_ROW = (
    "kernel.rows",
    "kernel.row_evaluations",
    "kernel.bracket_iterations",
    "kernel.backlog_rows",
    "kernel.witness_rejects",
)


@pytest.mark.parametrize("infeasible", [False, True])
def test_one_unit_of_shards_is_each_shard_planned_alone(payload, infeasible):
    items = _shard_items(infeasible)
    together = _shard_plan_worker(payload, items)
    alone = [_shard_plan_worker(payload, (item,))[0] for item in items]
    assert [outcome.index for outcome in together] == [0, 1, 2]
    for ours, single in zip(together, alone):
        assert ours.result == single.result
        assert ours.error == single.error
        if single.result is not None:
            ours_search, single_search = ours.result.search, single.result.search
            assert ours_search.history == single_search.history
            assert ours_search.generations_run == single_search.generations_run
            assert (
                ours_search.evaluations_performed
                == single_search.evaluations_performed
            )
        for name in _PER_SHARD:
            assert ours.counters.get(name) == single.counters.get(name), name
    for name in _PER_ROW:
        assert sum(outcome.counters.get(name, 0) for outcome in together) == sum(
            outcome.counters[name] for outcome in alone
        ), name
    # The unit shared its solves: fewer decision steps than one by one.
    assert sum(outcome.counters.get("kernel.calls", 0) for outcome in together) < sum(
        outcome.counters["kernel.calls"] for outcome in alone
    )
    infeasible_shards = [outcome.index for outcome in together if outcome.result is None]
    assert infeasible_shards == ([1] if infeasible else [])
    if infeasible:
        assert "fits on no remaining server" in together[1].error
    assert all(outcome.seconds > 0 for outcome in together)
