"""Every module under ``src/repro`` is reached by something that ships.

``tools/ledger.py`` walks the import graph from the planner, the CLI,
the benchmark of record, the paper-shape suite, the examples and the
tests. A module only the tests reach is dead weight — delete it with
its tests — unless it is listed here with the reason it stays.
"""

import importlib.util
from pathlib import Path

import pytest

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
