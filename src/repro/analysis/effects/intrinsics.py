"""Effect knowledge for callables the analyzer cannot see into.

Two tables:

* the **intrinsic table** — effects of stdlib/numpy primitives
  (``random.random`` is ambient RNG, ``time.time`` reads the clock,
  ``os.listdir`` touches the filesystem). Matched on canonical
  dotted names after ImportMap resolution; a handful of constructors
  are argument-sensitive (``numpy.random.default_rng(seed)`` is
  sanctioned, ``default_rng()`` is ambient).
* :data:`KNOWN_EFFECTS` — **verified overrides** for first-party
  callables whose raw inferred summary is not the contract callers
  should inherit. Each entry declares the summary inference *must*
  produce (``inferred`` — equality-checked by
  :func:`repro.analysis.effects.inference.verify_overrides`, so a
  behaviour change in the function breaks the build until the table is
  updated consciously) and the summary call sites inherit
  (``exported``). The hand-maintained entries are checked
  annotations, not ground truth.

Unknown externals are treated as effect-free (optimistic): assuming
the worst would mark the whole tree impure and drown every real
finding. The intrinsic table therefore concentrates on the primitives
that actually break determinism contracts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.effects.lattice import Effect

# --------------------------------------------------------------------
# Intrinsic (external) effects
# --------------------------------------------------------------------

#: Canonical names that read an *absolute* clock when called. The
#: monotonic duration clocks (``perf_counter``, ``monotonic``,
#: ``process_time``) are deliberately absent: they are the sanctioned
#: instrumentation primitives (ROP002 allows them for the same reason)
#: and their readings are understood to be measurements, not results.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: RNG constructors that are sanctioned *with* an explicit seed
#: argument and ambient without one.
_SEEDABLE_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Canonical calls that touch the filesystem or process streams.
_IO_CALLS = frozenset(
    {
        "open",
        "print",
        "input",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.fsync",
        "os.listdir",
        "os.scandir",
        "os.walk",
        "glob.glob",
        "glob.iglob",
        "shutil.copy",
        "shutil.copytree",
        "shutil.rmtree",
        "shutil.move",
        "json.dump",
        "json.load",
        "sys.stdout.write",
        "sys.stderr.write",
        "sys.stdout.flush",
        "sys.stderr.flush",
    }
)

#: Attribute names that perform file I/O on any receiver (Path /
#: file-handle methods).
_IO_METHODS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "unlink",
        "mkdir",
        "touch",
        "rmdir",
        "iterdir",
        "glob",
        "rglob",
    }
)

#: Canonical calls reading the process environment.
_ENV_CALLS = frozenset(
    {"os.getenv", "os.environ.get", "os.environ.setdefault", "os.getcwd"}
)


def _call_arity(node: ast.Call | None) -> int:
    if node is None:
        return 0
    return len(node.args) + len(node.keywords)


def external_effects(
    canonical: str, node: ast.Call | None = None
) -> frozenset[Effect]:
    """Effects of calling the external ``canonical`` name.

    ``node`` (when available) disambiguates the argument-sensitive
    RNG constructors; without it they are assumed ambient.
    """
    effects: set[Effect] = set()
    if canonical in _SEEDABLE_RNG_CONSTRUCTORS:
        if _call_arity(node) == 0:
            effects.add(Effect.AMBIENT_RNG)
    elif canonical.startswith("random.") or canonical.startswith(
        "numpy.random."
    ):
        effects.add(Effect.AMBIENT_RNG)
    if canonical in WALL_CLOCK_CALLS:
        effects.add(Effect.WALL_CLOCK)
    if canonical in _IO_CALLS:
        effects.add(Effect.IO)
    if canonical in _ENV_CALLS or canonical.startswith("os.environ."):
        effects.add(Effect.ENV)
    return frozenset(effects)


def method_effects(attribute: str) -> frozenset[Effect]:
    """Effects of an unresolvable ``receiver.attribute(...)`` call."""
    if attribute in _IO_METHODS:
        return frozenset({Effect.IO})
    return frozenset()


# --------------------------------------------------------------------
# Verified first-party overrides
# --------------------------------------------------------------------


@dataclass(frozen=True)
class EffectOverride:
    """One hand-maintained, inference-checked effect contract.

    ``inferred`` must equal the engine's raw summary for the function
    (drift fails :func:`verify_overrides`); ``exported`` is what call
    sites inherit — the contract after accounting for behaviour the
    analysis cannot condition on (an effect only reachable with
    ``seed=None``, sanctioned journaling I/O, ...).
    """

    inferred: frozenset[Effect]
    exported: frozenset[Effect] = field(default=frozenset())
    reason: str = ""


def _fx(*effects: Effect) -> frozenset[Effect]:
    return frozenset(effects)


#: Verified overrides, keyed by canonical qualified name. Every entry
#: that names a function present in the analyzed project is
#: equality-checked against inference by the test suite (and by
#: ``verify_overrides``), so this table cannot silently rot the way a
#: purely manual signature table can.
KNOWN_EFFECTS: dict[str, EffectOverride] = {
    "repro.util.rng.derive_rng": EffectOverride(
        inferred=_fx(Effect.AMBIENT_RNG),
        exported=frozenset(),
        reason=(
            "ambient only on the documented seed=None branch; callers "
            "that pass None opt out of reproducibility explicitly and "
            "ROP001 polices raw RNG construction everywhere else"
        ),
    ),
    "repro.util.rng.SeedSequenceFactory.generator": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason="spawns children from an explicit root SeedSequence",
    ),
    "repro.engine.dispatch.split_chunks": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason="pure chunking policy; order-preserving by contract",
    ),
    "repro.engine.faults.seeded_occurrences": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason="draws from a generator derived from the explicit seed",
    ),
    "repro.engine.checkpoint.Checkpointer.save": EffectOverride(
        inferred=_fx(Effect.IO),
        exported=_fx(Effect.IO),
        reason="journaling write-then-rename is the sanctioned I/O path",
    ),
    "repro.placement.clustering.cluster_workloads": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason=(
            "deterministic agglomerative clustering; tie-breaks are "
            "index-ordered and labels canonicalised by first occurrence"
        ),
    ),
    "repro.placement.sharding.partition_pool": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason="largest-remainder apportionment over ordered inputs",
    ),
    "repro.placement.sharding.derive_shard_seed": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason="stable integer seed derivation, no RNG state involved",
    ),
    "repro.workloads.ensemble.scaled_ensemble": EffectOverride(
        inferred=frozenset(),
        exported=frozenset(),
        reason="replica perturbations drawn from the explicit seed",
    ),
}
