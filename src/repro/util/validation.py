"""Argument-validation helpers used across the library.

Each helper validates one scalar and returns it unchanged so call sites can
validate inline::

    self.theta = require_probability(theta, "theta")

All helpers raise :class:`ValueError` with a message naming the offending
parameter; higher layers wrap these in domain exceptions where useful.

Boundary conventions
--------------------
The two unit-bearing helpers deliberately accept *different* intervals,
and the difference is load-bearing:

* :func:`require_fraction` accepts the **open** interval ``(0, 1)`` —
  both endpoints excluded. It guards quantities that appear as divisors
  or in ``1 - x`` denominators (``U_low`` in the burst factor
  ``1 / U_low``; ``theta`` in formula 1's ``1 - theta`` divisor), where
  either endpoint would divide by zero.
* :func:`require_probability` accepts the **closed** interval
  ``[0, 1]`` — both endpoints included. A commitment of ``theta = 1.0``
  (dedicated capacity, CoS1-only) and ``theta = 0.0`` (no commitment)
  are both meaningful probabilities.

Call sites that accept ``theta = 1.0`` but later divide by
``1 - theta`` must branch *before* the division — see
:func:`repro.core.partition.breakpoint_fraction`, which short-circuits
via ``repro.util.floats.isclose(theta, 1.0)`` so values within
``METRIC_ATOL`` of 1 never reach the ``1 - theta`` divisor.

The corresponding :mod:`repro.units` markers declare the *closed*
domains (``Fraction01`` and ``Probability`` are both ``[0, 1]``): a
successful ``require_fraction`` call proves membership in a strict
subset of ``Fraction01``'s domain, so ROP011 accepts either helper as
the ``__post_init__`` check of a field carrying that marker.
"""

from __future__ import annotations

import math
from typing import SupportsFloat

from repro.units import Fraction01, Probability


def _as_float(value: SupportsFloat, name: str) -> float:
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(result):
        raise ValueError(f"{name} must not be NaN")
    return result


def require_positive(value: SupportsFloat, name: str) -> float:
    """Return ``value`` as float, requiring it to be strictly positive.

    Half-open domain ``(0, inf)``: zero is rejected because callers use
    the result as a divisor or scale factor.
    """
    result = _as_float(value, name)
    if result <= 0:
        raise ValueError(f"{name} must be > 0, got {result}")
    return result


def require_probability(value: SupportsFloat, name: str) -> Probability:
    """Return ``value`` as float, requiring 0 <= value <= 1.

    **Closed** interval ``[0, 1]``: the endpoints are meaningful
    probabilities (never / always), so they are accepted. Contrast with
    :func:`require_fraction`. No tolerance is applied: a value within
    ``METRIC_ATOL`` *outside* the interval (e.g. ``1 + 1e-12``) is
    still rejected — clamp explicitly at the call site if accumulated
    rounding can push a probability out of range.
    """
    result = _as_float(value, name)
    if not 0.0 <= result <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {result}")
    return result


def require_fraction(value: SupportsFloat, name: str) -> Fraction01:
    """Return ``value`` as float, requiring 0 < value < 1.

    **Open** interval ``(0, 1)``: both endpoints are excluded because
    fraction-typed parameters feed divisions (``1 / U_low``,
    ``1 - theta``). Endpoint values within ``METRIC_ATOL`` of 0 or 1
    are *accepted* (e.g. ``1 - 1e-12`` passes); callers whose formulas
    are singular at an endpoint must additionally guard with
    ``repro.util.floats.isclose``, as
    :func:`repro.core.partition.breakpoint_fraction` does for
    ``theta == 1.0``.
    """
    result = _as_float(value, name)
    if not 0.0 < result < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {result}")
    return result

