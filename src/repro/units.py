"""Scalar unit markers for the three domains the QoS math mixes.

R-Opus formulas combine quantities that Python's ``float`` cannot tell
apart: utilization *fractions* in ``[0, 1]`` (``U_low``, ``U_high``,
``theta``), *percentages* in ``[0, 100]`` (``M``, ``M_degr``), and slot
*counts* (``s``, ``T_degr``). A single missed ``/100`` conversion
silently corrupts every downstream compliance number, so the unit of a
scalar is part of its type here:

* :data:`Fraction01` — a dimensionless fraction in ``[0, 1]``
  (utilizations of allocation, degraded/acceptable fractions,
  breakpoint ``p``);
* :data:`Percent` — the same quantity scaled by 100, in ``[0, 100]``
  (``M``, ``M_degr``; convert with ``/ 100.0`` and ``* 100.0`` only);
* :data:`Probability` — a chance in ``[0, 1]`` (``theta`` access
  probabilities, failure probabilities);
* :data:`Slots` — a non-negative count of measurement slots
  (``T_degr`` expressed in slots, run lengths);
* :data:`CpuShares` — an absolute resource amount in CPU shares
  (demands, allocations, capacities; non-negative, unbounded).

The markers are :data:`typing.Annotated` aliases, so they are ``float``
(or ``int``) at runtime and invisible to normal code, while
``repro.analysis``'s ROP011 reads them from the AST and requires every
dataclass field that carries one to be range-checked in
``__post_init__``. Keep this module dependency-free (stdlib only): the
linter imports it to share one definition of each unit's name and
range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

__all__ = [
    "CPU_SHARES",
    "CpuShares",
    "FRACTION_01",
    "Fraction01",
    "PERCENT",
    "Percent",
    "PROBABILITY",
    "Probability",
    "SLOTS",
    "Slots",
    "UNITS_BY_NAME",
    "Unit",
    "unit_for_annotation",
]


@dataclass(frozen=True)
class Unit:
    """Metadata for one scalar unit: its name and domain.

    ``low``/``high`` bound the unit's declared domain;
    ``low_inclusive``/``high_inclusive`` record whether each bound
    belongs to it.
    """

    name: str
    symbol: str
    low: float
    high: float
    low_inclusive: bool = True
    high_inclusive: bool = True

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the unit's declared domain."""
        if math.isnan(value):
            return False
        above = value >= self.low if self.low_inclusive else value > self.low
        below = value <= self.high if self.high_inclusive else value < self.high
        return above and below

    @property
    def bounds(self) -> str:
        """The domain in interval notation, e.g. ``[0, 1]``."""
        open_bracket = "[" if self.low_inclusive else "("
        close_bracket = "]" if self.high_inclusive else ")"
        return f"{open_bracket}{self.low:g}, {self.high:g}{close_bracket}"


FRACTION_01 = Unit(
    name="Fraction01",
    symbol="fraction",
    low=0.0,
    high=1.0,
)
PERCENT = Unit(
    name="Percent",
    symbol="%",
    low=0.0,
    high=100.0,
)
PROBABILITY = Unit(
    name="Probability",
    symbol="probability",
    low=0.0,
    high=1.0,
)
SLOTS = Unit(
    name="Slots",
    symbol="slots",
    low=0.0,
    high=math.inf,
    high_inclusive=False,
)
CPU_SHARES = Unit(
    name="CpuShares",
    symbol="CPU shares",
    low=0.0,
    high=math.inf,
    high_inclusive=False,
)

#: Dimensionless fraction in ``[0, 1]``: utilizations, ``p``, measured
#: acceptable/degraded fractions.
Fraction01 = Annotated[float, FRACTION_01]

#: Percentage in ``[0, 100]``: ``M``, ``M_degr``. Convert to a fraction
#: with ``/ 100.0`` only.
Percent = Annotated[float, PERCENT]

#: Chance in ``[0, 1]``: ``theta`` commitments, failure probabilities.
Probability = Annotated[float, PROBABILITY]

#: Non-negative count of measurement slots (``T_degr`` in slots, runs).
Slots = Annotated[int, SLOTS]

#: Absolute resource amount in CPU shares (demands, allocations).
CpuShares = Annotated[float, CPU_SHARES]

#: Every unit, keyed by marker name. ROP011 resolves an annotation like
#: ``units.Percent`` to its final attribute and looks the unit up here.
UNITS_BY_NAME: dict[str, Unit] = {
    unit.name: unit
    for unit in (FRACTION_01, PERCENT, PROBABILITY, SLOTS, CPU_SHARES)
}


def unit_for_annotation(name: str) -> Unit | None:
    """The unit for an annotation spelled ``name``.

    Accepts bare (``Percent``) or dotted (``repro.units.Percent``)
    spellings; anything not ending in a known marker name is not a unit
    annotation and yields ``None``.
    """
    return UNITS_BY_NAME.get(name.rsplit(".", 1)[-1])
