"""Exception hierarchy for the R-Opus library.

All exceptions raised intentionally by :mod:`repro` derive from
:class:`ROpusError` so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``KeyError`` from plain bugs) propagate unchanged.
"""

from __future__ import annotations


class ROpusError(Exception):
    """Base class for every error raised by the R-Opus library."""


class TraceError(ROpusError):
    """A demand or allocation trace is malformed or inconsistent."""


class CalendarMismatchError(TraceError):
    """Two traces (or a trace and a calendar) cover incompatible time grids."""


class QoSSpecificationError(ROpusError):
    """An application QoS requirement is self-contradictory or out of range."""


class CommitmentError(ROpusError):
    """A resource-pool class-of-service commitment is invalid."""


class PartitionError(ROpusError):
    """Demand partitioning across classes of service failed."""


class TranslationError(ROpusError):
    """The QoS translation could not map demands onto the pool's CoS."""


class PlacementError(ROpusError):
    """The workload placement service could not produce a valid assignment."""


class InfeasiblePlacementError(PlacementError):
    """No assignment satisfies the resource access QoS commitments."""


class CapacityError(ROpusError):
    """A capacity value is invalid (negative, zero where positive required)."""


class SimulationError(ROpusError):
    """The single-server replay simulation hit an inconsistent state."""


class ConfigurationError(ROpusError):
    """A component was configured with invalid parameters."""


class ResilienceError(ROpusError):
    """Fan-out work kept failing after every retry and degradation step.

    Raised by the resilient executor once bounded retries, pool
    respawns, and the serial fallback have all been exhausted — the
    failure is persistent, not transient, and the caller must decide.
    """


class InvariantError(ROpusError):
    """An internal invariant the library relies on was violated.

    Used where a bare ``assert`` would be wrong: asserts are stripped
    under ``python -O``, so invariants that must hold in production are
    checked with an explicit raise (enforced by the ``no-bare-assert``
    rule of :mod:`repro.analysis`).
    """


class DeterminismViolation(ROpusError):
    """Worker code touched an ambient nondeterminism source at runtime.

    Raised by :mod:`repro.analysis.sanitizer` (armed in pool workers
    under ``ROPUS_SANITIZE=1``) when a work unit reads the wall clock
    or draws from process-ambient RNG state — the dynamic counterpart
    of the static ROP001/ROP002 rules.
    """
