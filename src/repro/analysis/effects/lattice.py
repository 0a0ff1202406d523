"""The effect lattice: what a callable may do besides compute.

An effect summary is a *set* of :class:`Effect` members; the lattice
is the powerset ordered by inclusion, with ``PURE`` as the empty set
at the bottom and join = union. Summaries only ever grow during the
bottom-up fixpoint, so termination is immediate (the lattice is
finite and has no infinite ascending chains).

Each effect a summary carries is anchored by an :class:`Origin` — the
``path:line`` of the *primitive* site that introduced it (the
``random.random()`` call, the ``global`` rebinding), preserved
unchanged as the effect propagates up the call graph. Rule messages
can therefore point a reviewer at the actual offending line three
calls deep instead of at the function that merely inherited it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping


class Effect(enum.Enum):
    """One observable capability of a callable.

    ``PURE`` is not a member: purity is the *absence* of effects
    (:attr:`EffectSummary.pure`).
    """

    #: Reads module-level state that some code path reassigns.
    READS_GLOBAL = "reads-global"
    #: Rebinds or mutates module-level state.
    MUTATES_GLOBAL = "mutates-global"
    #: Draws from process-ambient RNG state (``random.*``, unseeded
    #: ``numpy.random.default_rng()``) instead of a threaded generator.
    AMBIENT_RNG = "ambient-rng"
    #: Reads a clock (``time.time``, ``perf_counter``, ``datetime.now``).
    WALL_CLOCK = "wall-clock"
    #: Touches the filesystem or process streams.
    IO = "io"
    #: Reads the process environment (``os.environ`` / ``os.getenv``).
    ENV = "env"

    def __str__(self) -> str:
        return self.value


#: The effects ROP013 refuses to let into a parallel work unit: any of
#: these makes serial and process-pool runs observably different.
TASK_UNSAFE = frozenset(
    {Effect.AMBIENT_RNG, Effect.WALL_CLOCK, Effect.MUTATES_GLOBAL}
)


@dataclass(frozen=True)
class Origin:
    """The primitive source site of one effect."""

    path: str
    line: int
    detail: str

    def __str__(self) -> str:
        return f"{self.detail} at {self.path}:{self.line}"


@dataclass(frozen=True)
class EffectSummary:
    """The inferred effect set of one callable, with provenance."""

    effects: frozenset[Effect]
    origins: Mapping[Effect, Origin]

    @property
    def pure(self) -> bool:
        return not self.effects

    def origin(self, effect: Effect) -> Origin | None:
        return self.origins.get(effect)

    def join(self, other: "EffectSummary") -> "EffectSummary":
        """Least upper bound; the first-seen origin per effect wins."""
        if other.effects <= self.effects:
            return self
        origins = dict(other.origins)
        origins.update(self.origins)  # self's origins take precedence
        return EffectSummary(
            effects=self.effects | other.effects, origins=origins
        )

    def names(self) -> tuple[str, ...]:
        """Sorted effect value-strings (stable test/report order)."""
        return tuple(sorted(effect.value for effect in self.effects))

    @classmethod
    def empty(cls) -> "EffectSummary":
        return _EMPTY

    @classmethod
    def of(cls, pairs: Iterable[tuple[Effect, Origin]]) -> "EffectSummary":
        origins: dict[Effect, Origin] = {}
        for effect, origin in pairs:
            origins.setdefault(effect, origin)
        return cls(effects=frozenset(origins), origins=origins)


_EMPTY = EffectSummary(effects=frozenset(), origins={})
