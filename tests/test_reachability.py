"""Every module under ``src/repro`` is reached by something that ships.

``tools/ledger.py`` walks the import graph from the planner, the CLI,
the benchmark of record, the paper-shape suite, the examples and the
tests. A module only the tests reach is dead weight — delete it with
its tests — unless it is listed here with the reason it stays.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from tests.analysis.invariant_checks import (
    called_name,
    functions,
    module_state_mutations,
    unowned_pool_bindings,
)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ledger.py"

#: Tests-only modules that stay, and why.
REFERENCE_MODULES = {
    "repro.resources.scheduler": (
        "independent slot-level CoS1-before-CoS2 scheduler that "
        "tests/integration/test_equivalences.py, test_pipeline.py and "
        "tests/placement/test_simulator.py hold the trace simulator to"
    ),
    "repro.metrics.access": (
        "theta measured exactly as Section IV defines it, the reference "
        "tests/integration/test_equivalences.py compares the simulator's "
        "access probability against"
    ),
}


@pytest.fixture(scope="module")
def tests_only():
    spec = importlib.util.spec_from_file_location("ropus_tools_ledger", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        name
        for name, (_, kinds) in module.ledger().items()
        if set(kinds) <= {"tests"}
    }


def test_no_module_is_reached_by_tests_only(tests_only):
    assert tests_only - REFERENCE_MODULES.keys() == set()


def test_allow_list_is_not_stale(tests_only):
    assert REFERENCE_MODULES.keys() - tests_only == set()


# Process pools and shared-memory segments, two of the acquisitions the
# leak tracker patches, each have exactly one home. A second pool
# backend (or a second shared-memory publisher) growing back fails here,
# by module.
_REPO = Path(__file__).resolve().parents[1]
_SRC = _REPO / "src" / "repro"


def _modules_calling(name, predicate=lambda call: True):
    found = set()
    for path in sorted(_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(
            isinstance(node, ast.Call)
            and called_name(node) == name
            and predicate(node)
            for node in ast.walk(tree)
        ):
            found.add(path.relative_to(_SRC).as_posix())
    return found


def _creates_segment(call):
    return any(
        keyword.arg == "create"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def test_one_module_owns_a_process_pool():
    assert _modules_calling("ProcessPoolExecutor") == {"engine/resilience.py"}


def test_one_module_creates_shared_memory():
    assert _modules_calling("SharedMemory", _creates_segment) == {
        "engine/broadcast.py"
    }


# The witness screen sits in front of the kernel's aggregation and
# nowhere near the oracle that checks the kernel: every aggregation in
# the production path goes through the one screened function, and the
# scalar reference never consults the screen.
def _tree(relative):
    path = _SRC / relative
    return ast.parse(path.read_text(), filename=str(path))


def _mentions_witness(node):
    return any(
        "witness" in name.lower()
        for child in ast.walk(node)
        for name in (
            getattr(child, "id", None),
            getattr(child, "attr", None),
            getattr(child, "name", None),
        )
        if isinstance(name, str)
    )


def test_only_the_screened_function_aggregates_subsets():
    callers = set()
    for path in sorted(_SRC.rglob("*.py")):
        relative = path.relative_to(_SRC).as_posix()
        if relative == "placement/fused.py":
            continue
        for function in functions(_tree(relative)):
            if any(
                isinstance(node, ast.Call) and called_name(node) == "from_subsets"
                for node in ast.walk(function)
            ):
                callers.add((relative, function.name))
    assert callers == {("placement/evaluation.py", "_evaluate_items_batched")}


def test_the_scalar_oracle_never_references_the_witness():
    evaluation = {
        function.name: function
        for function in functions(_tree("placement/evaluation.py"))
    }
    for name in ("_evaluate_rows", "search_result", "_simulator_for"):
        assert not _mentions_witness(evaluation[name]), name
    for module in ("placement/simulator.py", "placement/required_capacity.py"):
        assert not _mentions_witness(_tree(module)), module


# The checks tests/analysis/test_rules.py pins on the regression
# fixtures of the worker-cache and engine-assert bugs, over the tree.

#: Module-level state functions mutate on purpose, and why.
MODULE_STATE = {
    ("engine/broadcast.py", "_PUBLISHED"): (
        "driver-side registry of live segments: owning a segment from "
        "the line after its creation is the publish-leak fix, and the "
        "atexit sweep releases what is left"
    ),
    ("engine/broadcast.py", "_ATTACHED"): (
        "segments this process attached to, kept referenced so the "
        "resolved views' buffers stay mapped"
    ),
    ("engine/executor.py", "_WORKER_SHARED"): (
        "the payload the pool initializer installs once per worker, so "
        "the maps of one session do not re-pickle it"
    ),
    ("analysis/rules/base.py", "_REGISTRY"): (
        "the rule registry, filled by @register when the rules import"
    ),
    ("analysis/sanitizer.py", "_SAVED"): (
        "the originals uninstall() restores"
    ),
    ("analysis/leaktrack.py", "_SAVED"): (
        "the originals uninstall() restores"
    ),
    ("analysis/leaktrack.py", "_LIVE"): (
        "the tracker's per-process book of open resources"
    ),
    ("analysis/leaktrack.py", "counters"): (
        "the tracker's per-process acquire/release tallies"
    ),
}


def test_module_state_is_mutated_only_where_allowed():
    mutated = set()
    for path in sorted(_SRC.rglob("*.py")):
        relative = path.relative_to(_SRC).as_posix()
        mutated |= {
            (relative, name) for name in module_state_mutations(_tree(relative))
        }
    assert mutated == MODULE_STATE.keys()


def test_pool_owners_are_opened_with_with():
    unowned = {}
    for root in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((_REPO / root).rglob("*.py")):
            relative = path.relative_to(_REPO).as_posix()
            if relative.startswith("tests/analysis/fixtures/"):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            if bindings := unowned_pool_bindings(tree):
                unowned[relative] = bindings
    assert unowned == {}
