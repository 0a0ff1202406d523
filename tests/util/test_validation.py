"""Tests for validation helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.floats import METRIC_ATOL
from repro.util.validation import (
    require_fraction,
    require_positive,
    require_probability,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive(-1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            require_positive(math.nan, "x")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            require_positive("abc", "x")

    def test_accepts_int(self):
        assert require_positive(3, "x") == 3.0


class TestRequireProbability:
    def test_bounds_inclusive(self):
        assert require_probability(0.0, "p") == 0.0
        assert require_probability(1.0, "p") == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            require_probability(1.01, "p")
        with pytest.raises(ValueError):
            require_probability(-0.01, "p")

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_identity_on_valid(self, value):
        assert require_probability(value, "p") == value


class TestRequireFraction:
    def test_rejects_bounds(self):
        with pytest.raises(ValueError):
            require_fraction(0.0, "f")
        with pytest.raises(ValueError):
            require_fraction(1.0, "f")

    def test_accepts_interior(self):
        assert require_fraction(0.5, "f") == 0.5


class TestBoundaryConventions:
    """The open-(0,1) vs closed-[0,1] contract the module documents."""

    @pytest.mark.parametrize("endpoint", [0.0, 1.0])
    def test_probability_accepts_the_endpoint_fraction_rejects_it(
        self, endpoint
    ):
        assert require_probability(endpoint, "p") == endpoint
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            require_fraction(endpoint, "f")

    def test_fraction_accepts_values_within_atol_of_the_endpoints(self):
        # Strictly inside (0, 1), even though closer to the endpoint
        # than METRIC_ATOL — the helper applies no tolerance of its own.
        near_zero = METRIC_ATOL / 2
        near_one = 1.0 - METRIC_ATOL / 2
        assert require_fraction(near_zero, "f") == near_zero
        assert require_fraction(near_one, "f") == near_one

    def test_probability_rejects_values_just_outside_despite_atol(self):
        with pytest.raises(ValueError):
            require_probability(1.0 + 1e-12, "p")
        with pytest.raises(ValueError):
            require_probability(-1e-12, "p")

    def test_negative_zero_counts_as_the_zero_endpoint(self):
        assert require_probability(-0.0, "p") == 0.0
        with pytest.raises(ValueError):
            require_fraction(-0.0, "f")

