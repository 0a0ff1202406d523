"""Named stage timers and counters.

Every compute layer of the pipeline (translation, placement, failure
planning, the management loops) emits into one shared
:class:`Instrumentation` instance owned by the
:class:`~repro.engine.core.ExecutionEngine`. The facility answers the
question Table I runs could not: *which stage dominates the wall-clock*?

Design constraints:

* recording must be cheap enough to leave on permanently (a dict update
  and a ``perf_counter`` call per stage exit);
* stages are re-entrant — the same stage name may be timed many times
  (e.g. one ``translation`` entry per planning run) and accumulates;
* the clock is injectable so tests can assert exact timings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping


@dataclass
class StageStats:
    """Accumulated timing statistics for one named stage."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Instrumentation:
    """Collects stage timings and counters from any layer.

    >>> ticks = iter(range(100))
    >>> instr = Instrumentation(clock=lambda: float(next(ticks)))
    >>> with instr.stage("translation"):
    ...     pass
    >>> instr.timings()["translation"]
    1.0
    >>> instr.count("translation.workloads", 26)
    >>> instr.counters()["translation.workloads"]
    26.0
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stages: dict[str, StageStats] = {}
        self._counters: dict[str, float] = {}

    # -- stage timers --------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block of work under ``name`` (re-entrant, accumulating)."""
        start = self._clock()
        try:
            yield
        finally:
            self.record_stage(name, self._clock() - start)

    def record_stage(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into a stage's stats."""
        stats = self._stages.get(name)
        if stats is None:
            stats = self._stages[name] = StageStats(name=name)
        stats.calls += 1
        stats.total_seconds += seconds

    def stage_stats(self) -> list[StageStats]:
        """Stage statistics in first-recorded order."""
        return list(self._stages.values())

    def timings(self) -> dict[str, float]:
        """Total seconds per stage name."""
        return {name: stats.total_seconds for name, stats in self._stages.items()}

    # -- counters ------------------------------------------------------
    def count(self, name: str, increment: float = 1) -> None:
        """Add ``increment`` to a named counter."""
        self._counters[name] = self._counters.get(name, 0.0) + float(increment)

    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    # -- deltas --------------------------------------------------------
    def counters_since(self, snapshot: Mapping[str, float]) -> dict[str, float]:
        """Per-counter increments accumulated since ``snapshot``.

        The snapshot is a :meth:`counters` copy taken earlier.
        Pre-existing counters that did not advance are omitted
        (mirroring :meth:`timings_since`), but counters *created* since
        the snapshot are kept even at a zero delta: a layer that
        records a full counter set with some zero values (e.g. the
        analytic kernel finishing without bracket iterations) reports
        those zeros instead of silently dropping the name, so counter
        sets stay comparable across runs and kernel modes.
        """
        deltas = {}
        for name, total in self._counters.items():
            delta = total - snapshot.get(name, 0.0)
            if delta > 0.0 or name not in snapshot:
                deltas[name] = delta
        return deltas

    def timings_since(self, snapshot: Mapping[str, float]) -> dict[str, float]:
        """Per-stage seconds accumulated since ``snapshot`` was taken.

        The snapshot is a :meth:`timings` copy taken earlier.

        Stages that did not advance are omitted, so the result of one
        planning run only names the stages that actually ran in it.
        """
        deltas = {}
        for name, total in self.timings().items():
            delta = total - snapshot.get(name, 0.0)
            if delta > 0.0:
                deltas[name] = delta
        return deltas
