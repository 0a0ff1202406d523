"""The pure parts of ``tools/ab.py``: run ordering and summary arithmetic.

No benchmark runs here; the tool is loaded from its file because
``tools/`` is a directory of scripts, not a package.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ropus_tools_ab", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunOrder:
    def test_odd_seeds_parent_first_even_seeds_change_first(self, ab):
        assert ab.run_order(3) == [
            (1, "parent"), (1, "change"),
            (2, "change"), (2, "parent"),
            (3, "parent"), (3, "change"),
        ]

    def test_each_side_runs_every_seed_once(self, ab):
        order = ab.run_order(10)
        for side in ab.SIDES:
            assert sorted(s for s, ran in order if ran == side) == list(range(1, 11))
        # Each side goes first in half of the pairs.
        assert [side for _, side in order[::2]].count("parent") == 5


class TestSummarize:
    def test_a_clear_gain(self, ab):
        parent = [1.30, 1.20, 1.00, 1.50, 1.00, 1.40, 1.10, 1.20, 1.30, 1.20]
        change = [value * 0.7 for value in parent]
        summary = ab.summarize(parent, change, "lower")
        assert (summary["wins"], summary["losses"], summary["ties"]) == (10, 0, 0)
        assert summary["parent"][1] == pytest.approx(1.20)
        assert summary["change"][1] == pytest.approx(0.84)
        assert summary["relative"] == pytest.approx(-0.30)
        assert summary["parent_iqr"] == pytest.approx(
            summary["parent"][2] - summary["parent"][0]
        )
        assert summary["gain"]

    def test_nine_of_ten_is_enough_eight_is_not(self, ab):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [value - 1.0 for value in parent]
        change[0] = parent[0] + 0.5
        assert ab.summarize(parent, change, "lower")["gain"]
        change[1] = parent[1] + 0.5
        summary = ab.summarize(parent, change, "lower")
        assert summary["wins"] == 8 and not summary["gain"]

    def test_a_difference_inside_the_parents_spread_is_no_gain(self, ab):
        parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        change = [value - 0.1 for value in parent]
        summary = ab.summarize(parent, change, "lower")
        assert summary["wins"] == 10
        assert not summary["gain"]

    def test_ties_count_for_neither_side(self, ab):
        summary = ab.summarize([45.0] * 10, [45.0] * 10, "lower")
        assert (summary["wins"], summary["losses"], summary["ties"]) == (0, 0, 10)
        assert summary["relative"] == 0.0
        assert not summary["gain"]

    def test_higher_is_better_flips_the_direction(self, ab):
        parent = [0.90, 0.91, 0.92, 0.90, 0.91, 0.92, 0.90, 0.91, 0.92, 0.90]
        change = [1.0] * 10
        assert ab.summarize(parent, change, "higher")["gain"]
        flipped = ab.summarize(parent, change, "lower")
        assert flipped["losses"] == 10 and not flipped["gain"]


class TestSetupParts:
    """The parts of setup_s that run.py writes, reduced to each side's median."""

    PARTS = ("imports", "generate", "cold_plan")

    def documents(self, runs_by_side):
        return {
            side: {
                seed: {"setup_parts_s": dict(zip(self.PARTS, parts))}
                for seed, parts in enumerate(runs, start=1)
            }
            for side, runs in runs_by_side.items()
        }

    def test_one_line_per_part_with_each_sides_median(self, ab):
        assert ab.SETUP_PARTS == self.PARTS
        lines = ab.setup_parts(self.documents({
            "parent": [(0.3, 0.7, 0.6), (0.4, 0.6, 0.7), (0.35, 0.65, 0.9)],
            "change": [(0.3, 0.3, 0.6), (0.4, 0.2, 0.7), (0.35, 0.25, 0.9)],
        }))
        assert lines[0].startswith("setup_parts_s")
        assert [line.split() for line in lines[1:]] == [
            ["imports", "0.35", "->", "0.35", "(+0)"],
            ["generate", "0.65", "->", "0.25", "(-0.4)"],
            ["cold_plan", "0.7", "->", "0.7", "(+0)"],
        ]

    def test_medians_not_means(self, ab):
        lines = ab.setup_parts(self.documents({
            "parent": [(0.3, 0.6, 0.6), (0.3, 0.6, 0.6), (0.3, 9.0, 0.6)],
            "change": [(0.3, 0.2, 0.6), (0.3, 0.2, 0.6), (0.3, 0.2, 0.6)],
        }))
        assert lines[2].split()[1:4] == ["0.6", "->", "0.2"]


class TestPlanHashes:
    """Each pair's two result documents carry the plan_hash of their plan."""

    def documents(self, parent, change):
        return {
            side: {
                seed: {"plan_hash": value}
                for seed, value in enumerate(values, start=1)
            }
            for side, values in (("parent", parent), ("change", change))
        }

    def test_every_pair_equal(self, ab):
        lines = ab.plan_hashes(self.documents(["a", "b", "c"], ["a", "b", "c"]))
        assert lines == ["plan_hash equal in 3/3 pairs"]

    def test_names_the_seeds_that_differ(self, ab):
        lines = ab.plan_hashes(
            self.documents(["a", "b", "c", "d"], ["a", "x", "c", "y"])
        )
        assert lines == ["plan_hash equal in 2/4 pairs; differs on seed 2, 4"]

    def test_a_missing_hash_is_a_difference(self, ab):
        documents = self.documents(["a", "b"], ["a", "b"])
        del documents["change"][1]["plan_hash"]
        del documents["parent"][2]["plan_hash"], documents["change"][2]["plan_hash"]
        assert ab.plan_hashes(documents) == [
            "plan_hash equal in 0/2 pairs; differs on seed 1, 2"
        ]


class TestProgress:
    """The line each run prints as the campaign goes."""

    def document(self, correct=True):
        values = {"plan_s_min": 0.3251, "setup_s": 0.99517, "peak_rss_mb": 87.90625}
        return {
            "end_to_end": {name: {"value": value} for name, value in values.items()},
            "correct": correct,
        }

    def test_time_setup_and_memory_on_one_line(self, ab):
        assert ab.progress(3, "change", self.document()) == (
            "seed 3 change: plan_s_min 0.3251 s, setup_s 0.9952 s, "
            "peak_rss_mb 87.91 MB"
        )

    def test_a_run_with_failed_plans_says_so(self, ab):
        line = ab.progress(1, "parent", self.document(correct=False))
        assert line.startswith("seed 1 parent: plan_s_min 0.3251 s")
        assert line.endswith("peak_rss_mb 87.91 MB  [FAILED PLANS]")
