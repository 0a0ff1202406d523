"""Tests for stochastic demand components."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workloads import noise
from repro.workloads.noise import (
    ar1_lognormal_noise,
    background_floor,
    inject_spikes,
)

#: The recurrence's chunk length; the lengths below straddle it.
CHUNK = 1024


def _ar1_reference(n, sigma, correlation, rng):
    """The per-element recurrence whose bytes every trace is pinned to."""
    generator = np.random.default_rng(rng)
    if sigma == 0:
        return np.ones(n)
    innovation_scale = sigma * np.sqrt(1.0 - correlation**2)
    log_values = np.empty(n)
    log_values[0] = generator.normal(0.0, sigma)
    innovations = generator.normal(0.0, innovation_scale, size=n - 1)
    for index in range(1, n):
        log_values[index] = (
            correlation * log_values[index - 1] + innovations[index - 1]
        )
    return np.exp(log_values - 0.5 * sigma**2)


class TestAr1LognormalNoise:
    def test_length(self):
        assert ar1_lognormal_noise(100, rng=0).shape == (100,)

    def test_strictly_positive(self):
        noise = ar1_lognormal_noise(5000, sigma=0.5, rng=1)
        assert (noise > 0).all()

    def test_mean_near_one(self):
        noise = ar1_lognormal_noise(100_000, sigma=0.3, correlation=0.5, rng=2)
        assert noise.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_sigma_gives_ones(self):
        assert np.array_equal(ar1_lognormal_noise(10, sigma=0.0, rng=0), np.ones(10))

    def test_zero_length(self):
        assert ar1_lognormal_noise(0, rng=0).shape == (0,)

    def test_autocorrelation_positive(self):
        noise = np.log(ar1_lognormal_noise(20_000, sigma=0.3, correlation=0.9, rng=3))
        centered = noise - noise.mean()
        lag1 = np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)
        assert lag1 > 0.8

    def test_low_correlation_less_correlated(self):
        high = np.log(ar1_lognormal_noise(20_000, sigma=0.3, correlation=0.95, rng=4))
        low = np.log(ar1_lognormal_noise(20_000, sigma=0.3, correlation=0.1, rng=4))

        def lag1(series):
            centered = series - series.mean()
            return np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)

        assert lag1(low) < lag1(high)

    def test_reproducible(self):
        a = ar1_lognormal_noise(50, rng=7)
        b = ar1_lognormal_noise(50, rng=7)
        assert np.array_equal(a, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ar1_lognormal_noise(-1)
        with pytest.raises(ConfigurationError):
            ar1_lognormal_noise(10, sigma=-0.1)
        with pytest.raises(ConfigurationError):
            ar1_lognormal_noise(10, correlation=1.0)


class TestAr1Bytes:
    """The chunked recurrence reproduces the per-element loop bit for bit."""

    def test_chunk_length(self):
        assert noise._CHUNK == CHUNK

    @pytest.mark.parametrize(
        "n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 104_832]
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("correlation", [0.0, 0.5, 0.99])
    def test_bytes_match_the_per_element_loop(self, n, sigma, correlation):
        for seed in (0, 7, 2006):
            expected = _ar1_reference(n, sigma, correlation, seed)
            actual = ar1_lognormal_noise(
                n, sigma=sigma, correlation=correlation, rng=seed
            )
            assert actual.tobytes() == expected.tobytes()


class TestInjectSpikes:
    def test_no_spikes_at_zero_rate(self):
        values = np.ones(1000)
        result = inject_spikes(values, 0.0, 2.0, 4.0, slots_per_week=500, rng=0)
        assert np.array_equal(result, values)

    def test_input_not_modified(self):
        values = np.ones(1000)
        inject_spikes(values, 10.0, 3.0, 4.0, slots_per_week=500, rng=0)
        assert np.array_equal(values, np.ones(1000))

    def test_spikes_raise_values(self):
        values = np.ones(5000)
        result = inject_spikes(values, 5.0, 3.0, 6.0, slots_per_week=1000, rng=1)
        assert result.max() >= 3.0
        assert (result >= values - 1e-12).all()

    def test_spikes_are_contiguous(self):
        values = np.ones(5000)
        result = inject_spikes(values, 1.0, 5.0, 10.0, slots_per_week=5000, rng=5)
        spiked = result > 1.5
        if spiked.any():
            # At least one run longer than a single slot should exist for
            # a mean duration of 10.
            diffs = np.flatnonzero(np.diff(np.concatenate(([0], spiked.view(np.int8), [0]))))
            lengths = diffs[1::2] - diffs[0::2]
            assert lengths.max() >= 2

    def test_reproducible(self):
        values = np.ones(2000)
        a = inject_spikes(values, 3.0, 2.0, 4.0, slots_per_week=1000, rng=9)
        b = inject_spikes(values, 3.0, 2.0, 4.0, slots_per_week=1000, rng=9)
        assert np.array_equal(a, b)

    def test_rejects_bad_parameters(self):
        values = np.ones(10)
        with pytest.raises(ConfigurationError):
            inject_spikes(values, -1.0, 2.0, 4.0, slots_per_week=10)
        with pytest.raises(ConfigurationError):
            inject_spikes(values, 1.0, 0.5, 4.0, slots_per_week=10)
        with pytest.raises(ConfigurationError):
            inject_spikes(values, 1.0, 2.0, 0.5, slots_per_week=10)
        with pytest.raises(ConfigurationError):
            inject_spikes(values, 1.0, 2.0, 4.0, slots_per_week=0)
        with pytest.raises(ConfigurationError):
            inject_spikes(values, 1.0, 2.0, 4.0, slots_per_week=10, magnitude_tail=1.0)
        with pytest.raises(ConfigurationError):
            inject_spikes(np.ones((2, 2)), 1.0, 2.0, 4.0, slots_per_week=10)


class TestBackgroundFloor:
    def test_raises_to_floor(self):
        values = np.array([0.0, 0.5, 2.0])
        assert background_floor(values, 1.0).tolist() == [1.0, 1.0, 2.0]

    def test_rejects_negative_floor(self):
        with pytest.raises(ConfigurationError):
            background_floor(np.ones(3), -0.1)
