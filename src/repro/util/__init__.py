"""Shared utilities: seeded randomness, float tolerance, validation, tables."""

from repro.util.floats import METRIC_ATOL, at_most, is_zero, isclose
from repro.util.rng import SeedSequenceFactory, derive_rng
from repro.util.tables import format_table
from repro.util.validation import (
    require_fraction,
    require_positive,
    require_probability,
)

__all__ = [
    "METRIC_ATOL",
    "SeedSequenceFactory",
    "at_most",
    "derive_rng",
    "format_table",
    "is_zero",
    "isclose",
    "require_fraction",
    "require_positive",
    "require_probability",
]
