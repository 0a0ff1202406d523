"""Per-rule positive/negative coverage against the fixture files.

Every rule must fire on its ``bad_*`` fixture and stay silent on its
``good_*`` fixture; the good fixtures double as regression tests for
the false-positive traps each rule deliberately avoids (local names
shadowing modules, sort-key lambdas, injectable clock defaults, ...).
The ``regression_*`` fixture pairs are the last three classes here.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_paths, registered_rules
from tests.analysis.invariant_checks import (
    module_state_mutations,
    stranded_segments,
    unowned_pool_bindings,
)

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = [
    ("ROP001", "bad_naked_rng.py", "good_naked_rng.py"),
    ("ROP002", "bad_wall_clock.py", "good_wall_clock.py"),
    ("ROP003", "bad_float_equality.py", "good_float_equality.py"),
    ("ROP004", "bad_executor_submission.py", "good_executor_submission.py"),
    ("ROP005", "bad_bare_assert.py", "good_bare_assert.py"),
    ("ROP006", "bad_mutable_default.py", "good_mutable_default.py"),
    ("ROP011", "bad_unvalidated_boundary.py", "good_unvalidated_boundary.py"),
]


class TestRegistry:
    def test_every_domain_rule_registered(self):
        # Equality, not containment: a retired id that crept back in
        # (or a new rule without a fixture pair) fails here.
        assert {case[0] for case in RULE_FIXTURES} == set(registered_rules())

    def test_rules_carry_metadata(self):
        for rule_id, rule_class in registered_rules().items():
            assert rule_class.rule_id == rule_id
            assert rule_class.name
            assert rule_class.description
            assert rule_class.hint
            # --explain renders these; every rule must supply them.
            assert rule_class.rationale
            assert rule_class.example_bad
            assert rule_class.example_good


@pytest.mark.parametrize(
    "rule_id,bad_fixture,good_fixture", RULE_FIXTURES
)
class TestRuleFixtures:
    def test_bad_fixture_is_flagged(self, rule_id, bad_fixture, good_fixture):
        result = analyze_paths([FIXTURES / bad_fixture])
        fired = {finding.rule for finding in result.findings}
        assert rule_id in fired
        assert not result.clean

    def test_good_fixture_is_clean(self, rule_id, bad_fixture, good_fixture):
        result = analyze_paths([FIXTURES / good_fixture])
        assert result.findings == ()
        assert result.clean

    def test_findings_carry_location_and_hint(
        self, rule_id, bad_fixture, good_fixture
    ):
        result = analyze_paths([FIXTURES / bad_fixture])
        for finding in result.findings:
            assert finding.line >= 1
            assert finding.column >= 1
            assert bad_fixture in finding.path
            assert finding.hint


class TestSpecificDetections:
    def test_lambda_and_closure_both_flagged(self):
        result = analyze_paths([FIXTURES / "bad_executor_submission.py"])
        messages = [finding.message for finding in result.findings]
        assert any("lambda" in message for message in messages)
        assert any("nested function" in message for message in messages)

    def test_float_equality_counts_each_comparison(self):
        result = analyze_paths([FIXTURES / "bad_float_equality.py"])
        assert len(result.findings) == 3

    def test_unvalidated_boundary_names_each_field(self):
        result = analyze_paths([FIXTURES / "bad_unvalidated_boundary.py"])
        messages = [finding.message for finding in result.findings]
        assert len(messages) == 3
        assert any("'u_low'" in message for message in messages)
        assert any("'m_degr_percent'" in message for message in messages)
        assert any("'u_high'" in message for message in messages)


# The three first-party bugs the retired fixpoint engines caught (ROP013's
# worker cache, ROP017's publish leak and engine-assert leak), each
# pinned by a cheaper check on its regression shape. The same checks run
# over the shipped tree in tests/test_reachability.py and
# tests/engine/test_broadcast.py.


def _fixture_tree(name):
    return ast.parse((FIXTURES / name).read_text(encoding="utf-8"))


def _fixture_module(name):
    spec = importlib.util.spec_from_file_location(
        f"ropus_fixture_{Path(name).stem}", FIXTURES / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestShmPublishLeakRegression:
    """The pre-fault-tolerance ``broadcast.publish`` shm leak.

    The segment used to be created and populated before any owner knew
    about it; a view copy raising mid-loop stranded the ``/dev/shm``
    segment. Run with that copy failing, the historical shape leaves
    its segment unowned and the fixed shape (registry store immediately
    after creation) leaves it in the registry.
    """

    ARRAYS = [np.arange(8.0), np.ones(4)]

    def test_historical_publish_shape_is_flagged(self):
        module = _fixture_module("regression_shm_publish_leak.py")
        assert len(stranded_segments(module, self.ARRAYS)) == 1

    def test_fixed_publish_shape_is_clean(self):
        module = _fixture_module("regression_shm_publish_fixed.py")
        assert stranded_segments(module, self.ARRAYS) == []


class TestWorkerGlobalCacheRegression:
    """The ``_SWEEP_SCRATCH`` bug: a submitted worker's helper memoised
    per-payload state in a module-global dict.

    Module state mutated from a function is the whole shape; the fixed
    shape hangs the scratch off the payload.
    """

    def test_historical_worker_cache_is_flagged(self):
        tree = _fixture_tree("regression_worker_cache_global.py")
        assert module_state_mutations(tree) == {"_SWEEP_SCRATCH"}

    def test_payload_attached_cache_is_clean(self):
        tree = _fixture_tree("regression_worker_cache_fixed.py")
        assert module_state_mutations(tree) == set()


class TestEngineAssertLeakRegression:
    """Engines the test suite leaked on assertion-failure paths.

    ``close()`` after the ``assert`` is skipped when the assertion
    fails. An engine bound by assignment and not returned is the shape;
    the fixed shape opens it with ``with``.
    """

    def test_close_after_assert_is_flagged(self):
        tree = _fixture_tree("regression_engine_assert_leak.py")
        assert unowned_pool_bindings(tree) == [
            ("check_parallel_matches_serial", 20)
        ]

    def test_context_managed_engine_is_clean(self):
        tree = _fixture_tree("regression_engine_assert_fixed.py")
        assert unowned_pool_bindings(tree) == []
