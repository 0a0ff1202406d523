"""Tests for the interprocedural effect engine.

Covers the lattice algebra, the project scanner, the SCC fixpoint,
and — most importantly — the self-hosting contract: run over the
shipped ``src/`` tree, every :data:`KNOWN_EFFECTS` override must
resolve to a real function, and every override's declared ``inferred``
set must equal what the engine actually derives (so the hand-maintained
table cannot rot).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.effects import (
    Effect,
    EffectSummary,
    KNOWN_EFFECTS,
    Origin,
    build_project,
    infer_effects,
    verify_overrides,
)
from repro.analysis.effects.lattice import TASK_UNSAFE
from repro.analysis.rules.base import ModuleContext

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def _context(source: str, name: str = "sample.py") -> ModuleContext:
    path = Path(name)
    return ModuleContext(
        path=path,
        display_path=path.as_posix(),
        tree=ast.parse(source),
        source_lines=source.splitlines(),
    )


def _project_for(source: str, name: str = "sample.py"):
    project = build_project([_context(source, name)])
    return infer_effects(project)


def _effects_of(project, qualified: str) -> tuple[str, ...]:
    summary = project.summaries[qualified]
    return summary.names()


class TestLattice:
    def test_empty_summary_is_pure(self):
        assert EffectSummary.empty().pure
        assert EffectSummary.empty().names() == ()

    def test_join_unions_effects(self):
        origin = Origin(path="a.py", line=1, detail="x")
        left = EffectSummary.of([(Effect.IO, origin)])
        right = EffectSummary.of([(Effect.AMBIENT_RNG, origin)])
        joined = left.join(right)
        assert joined.effects == {Effect.IO, Effect.AMBIENT_RNG}

    def test_join_keeps_first_origin(self):
        first = Origin(path="a.py", line=1, detail="first")
        second = Origin(path="b.py", line=9, detail="second")
        left = EffectSummary.of([(Effect.IO, first)])
        right = EffectSummary.of([(Effect.IO, second)])
        assert left.join(right).origin(Effect.IO) is first

    def test_join_is_idempotent_object(self):
        origin = Origin(path="a.py", line=1, detail="x")
        summary = EffectSummary.of([(Effect.IO, origin)])
        assert summary.join(EffectSummary.empty()) is summary

    def test_task_unsafe_members(self):
        assert TASK_UNSAFE == {
            Effect.AMBIENT_RNG,
            Effect.WALL_CLOCK,
            Effect.MUTATES_GLOBAL,
        }


class TestScanner:
    def test_functions_indexed_by_qualified_name(self):
        project = _project_for(
            "def top():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
            "class Box:\n"
            "    def method(self):\n"
            "        return 2\n"
        )
        assert "sample.top" in project.functions
        assert "sample.top.<locals>.inner" in project.functions
        assert "sample.Box.method" in project.functions

    def test_ambient_rng_call_detected(self):
        project = _project_for(
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        )
        assert _effects_of(project, "sample.draw") == ("ambient-rng",)

    def test_seeded_default_rng_is_clean(self):
        project = _project_for(
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert _effects_of(project, "sample.make") == ()

    def test_unseeded_default_rng_is_ambient(self):
        project = _project_for(
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng()\n"
        )
        assert _effects_of(project, "sample.make") == ("ambient-rng",)

    def test_global_mutation_detected(self):
        project = _project_for(
            "_COUNT = 0\n"
            "def bump():\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"
        )
        assert "mutates-global" in _effects_of(project, "sample.bump")

    def test_module_global_method_mutation_detected(self):
        project = _project_for(
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert "mutates-global" in _effects_of(project, "sample.remember")

    def test_local_shadowing_global_name_is_clean(self):
        project = _project_for(
            "_CACHE = {}\n"
            "def local_only():\n"
            "    _CACHE = {}\n"
            "    _CACHE['k'] = 1\n"
            "    return _CACHE\n"
        )
        assert _effects_of(project, "sample.local_only") == ()

    def test_monotonic_clocks_are_not_wall_clock(self):
        project = _project_for(
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()\n"
        )
        assert _effects_of(project, "sample.measure") == ()

    def test_wall_clock_detected(self):
        project = _project_for(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert _effects_of(project, "sample.stamp") == ("wall-clock",)

    def test_env_read_detected(self):
        project = _project_for(
            "import os\n"
            "def flag():\n"
            "    return os.environ['X']\n"
        )
        assert "env" in _effects_of(project, "sample.flag")

    def test_listing_call_is_io(self):
        project = _project_for(
            "import os\n"
            "def entries(root):\n"
            "    return os.listdir(root)\n"
        )
        assert _effects_of(project, "sample.entries") == ("io",)

    def test_sorted_listing_is_io_only(self):
        project = _project_for(
            "import os\n"
            "def entries(root):\n"
            "    return sorted(os.listdir(root))\n"
        )
        assert _effects_of(project, "sample.entries") == ("io",)


class TestInference:
    def test_effects_propagate_up_call_chain(self):
        project = _project_for(
            "import random\n"
            "def leaf():\n"
            "    return random.random()\n"
            "def mid():\n"
            "    return leaf()\n"
            "def top():\n"
            "    return mid()\n"
        )
        for name in ("sample.leaf", "sample.mid", "sample.top"):
            assert _effects_of(project, name) == ("ambient-rng",)
        origin = project.summaries["sample.top"].origin(Effect.AMBIENT_RNG)
        assert origin is not None and origin.line == 3

    def test_mutual_recursion_shares_summary(self):
        project = _project_for(
            "import time\n"
            "def ping(n):\n"
            "    return pong(n - 1) if n else time.time()\n"
            "def pong(n):\n"
            "    return ping(n - 1) if n else 0\n"
        )
        assert _effects_of(project, "sample.ping") == ("wall-clock",)
        assert _effects_of(project, "sample.pong") == ("wall-clock",)

    def test_override_stops_propagation_to_callers(self):
        source = (
            "from repro.util.rng import derive_rng\n"
            "def caller(seed):\n"
            "    return derive_rng(seed).normal()\n"
        )
        project = _project_for(source)
        # derive_rng carries inferred={ambient-rng} but exports {} —
        # the caller inherits the exported contract.
        assert _effects_of(project, "sample.caller") == ()

    def test_unknown_externals_are_optimistic(self):
        project = _project_for(
            "import somelib\n"
            "def call():\n"
            "    return somelib.anything()\n"
        )
        assert _effects_of(project, "sample.call") == ()


class TestSelfHosting:
    """The engine run over the shipped tree, tables included."""

    @pytest.fixture(scope="class")
    def src_project(self):
        contexts = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            contexts.append(
                ModuleContext(
                    path=path,
                    display_path=path.as_posix(),
                    tree=ast.parse(source),
                    source_lines=source.splitlines(),
                )
            )
        return infer_effects(build_project(contexts))

    def test_every_effect_override_resolves(self, src_project):
        missing = [
            qualified
            for qualified in KNOWN_EFFECTS
            if qualified not in src_project.functions
        ]
        assert missing == []

    def test_every_effect_override_matches_inference(self, src_project):
        assert [str(m) for m in verify_overrides(src_project)] == []

    def test_shipped_tree_has_no_task_unsafe_submissions(self, src_project):
        violations = []
        for info in src_project.functions.values():
            for site in info.submissions:
                if site.work_target is None:
                    continue
                override = KNOWN_EFFECTS.get(site.work_target)
                if override is not None:
                    unsafe = override.exported & TASK_UNSAFE
                else:
                    summary = src_project.summaries.get(site.work_target)
                    if summary is None:
                        continue
                    unsafe = summary.effects & TASK_UNSAFE
                if unsafe:
                    violations.append(
                        (info.qualified, site.work_repr, sorted(unsafe))
                    )
        assert violations == []
