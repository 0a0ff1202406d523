"""Run the doctests embedded in module and API docstrings.

Documentation examples that silently rot are worse than none; every
``>>>`` block in the library must keep executing.
"""

import doctest
import importlib

import pytest

MODULES_WITH_DOCTESTS = [
    "repro.analysis.rules.base",
    "repro.core.partition",
    "repro.core.degradation",
    "repro.core.qos",
    "repro.engine.core",
    "repro.engine.instrumentation",
    "repro.resources.server",
    "repro.resources.pool",
    "repro.traces.calendar",
    "repro.traces.ops",
    "repro.util.floats",
    "repro.util.rng",
    "repro.util.tables",
    "repro.workloads.generator",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )
    assert results.attempted > 0, (
        f"expected at least one doctest in {module_name}"
    )
