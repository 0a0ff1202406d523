"""Stochastic components of synthetic demand.

Two processes model what the paper's real traces exhibit:

* :func:`ar1_lognormal_noise` — autocorrelated multiplicative noise. Real
  5-minute utilization samples are strongly correlated between adjacent
  intervals; an AR(1) process in log space reproduces that while keeping
  the noise strictly positive.
* :func:`inject_spikes` — rare, heavy-tailed demand spikes with contiguous
  duration. These create exactly the top-percentile outliers visible in
  the paper's Figure 6 and the multi-slot degraded runs that the
  ``T_degr`` time-limited-degradation analysis exists to handle.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.util.rng import RngLike, derive_rng

#: Samples per step of the AR(1) recurrence's Python-float loop; bounds
#: its temporary lists so no list as long as the trace is ever built.
_CHUNK = 1024


def ar1_lognormal_noise(
    n: int,
    sigma: float = 0.25,
    correlation: float = 0.85,
    rng: RngLike = None,
) -> np.ndarray:
    """Multiplicative AR(1) noise in log space, mean approximately 1.

    Parameters
    ----------
    n:
        Number of samples.
    sigma:
        Stationary standard deviation of the log-noise. Larger means
        burstier demand.
    correlation:
        AR(1) coefficient in ``[0, 1)``; adjacent 5-minute samples of real
        utilization are highly correlated, so the default is high.

    Returns an array of strictly positive multipliers with
    ``E[multiplier] ~= 1`` (the log process is mean-corrected by
    ``-sigma^2 / 2``).
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if not 0.0 <= correlation < 1.0:
        raise ConfigurationError(
            f"correlation must be in [0, 1), got {correlation}"
        )
    if n == 0:
        return np.empty(0)
    generator = derive_rng(rng)
    if sigma == 0:
        return np.ones(n)
    innovation_scale = sigma * np.sqrt(1.0 - correlation**2)
    log_values = np.empty(n)
    log_values[0] = generator.normal(0.0, sigma)
    innovations = generator.normal(0.0, innovation_scale, size=n - 1)
    # The recurrence steps sequentially over Python floats, one bounded
    # chunk at a time: each step is one IEEE-754 multiply, then one add,
    # which is what fixes the bytes of every trace. A closed form or a
    # blocked scan would reorder the additions and change them.
    previous = float(log_values[0])
    for start in range(0, n - 1, _CHUNK):
        chunk: list[float] = []
        for innovation in innovations[start:start + _CHUNK].tolist():
            previous = correlation * previous + innovation
            chunk.append(previous)
        log_values[start + 1:start + 1 + len(chunk)] = chunk
    return np.exp(log_values - 0.5 * sigma**2)


def inject_spikes(
    values: np.ndarray,
    spike_rate_per_week: float,
    magnitude: float,
    duration_slots_mean: float,
    slots_per_week: int,
    rng: RngLike = None,
    magnitude_tail: float = 2.5,
) -> np.ndarray:
    """Overlay rare heavy-tailed demand spikes on a demand series.

    Each spike multiplies a contiguous window of observations. Spike
    arrivals are Poisson with ``spike_rate_per_week``; durations are
    geometric with mean ``duration_slots_mean`` (at least one slot);
    magnitudes are Pareto-distributed with scale ``magnitude`` and tail
    index ``magnitude_tail`` — a tail index near 2.5 gives the "top 3% of
    demand 2-10x higher than the rest" profile of the paper's leftmost
    case-study applications.

    Returns a new array; the input is not modified.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ConfigurationError(f"values must be 1-D, got shape {values.shape}")
    if spike_rate_per_week < 0:
        raise ConfigurationError(
            f"spike_rate_per_week must be >= 0, got {spike_rate_per_week}"
        )
    if magnitude < 1.0:
        raise ConfigurationError(
            f"spike magnitude must be >= 1 (a multiplier), got {magnitude}"
        )
    if duration_slots_mean < 1.0:
        raise ConfigurationError(
            f"duration_slots_mean must be >= 1 slot, got {duration_slots_mean}"
        )
    if slots_per_week <= 0:
        raise ConfigurationError(
            f"slots_per_week must be > 0, got {slots_per_week}"
        )
    if magnitude_tail <= 1.0:
        raise ConfigurationError(
            f"magnitude_tail must be > 1 for a finite mean, got {magnitude_tail}"
        )

    result = values.copy()
    n = values.shape[0]
    if n == 0 or spike_rate_per_week == 0:
        return result
    generator = derive_rng(rng)
    weeks = n / slots_per_week
    n_spikes = generator.poisson(spike_rate_per_week * weeks)
    for _ in range(n_spikes):
        start = int(generator.integers(0, n))
        duration = 1 + int(generator.geometric(1.0 / duration_slots_mean) - 1)
        stop = min(start + duration, n)
        multiplier = magnitude * (1.0 + generator.pareto(magnitude_tail))
        result[start:stop] = result[start:stop] * multiplier
    return result


def background_floor(values: np.ndarray, floor: float) -> np.ndarray:
    """Raise a series to a minimum background level.

    Even idle enterprise applications consume a baseline of CPU (agents,
    health checks, garbage collection); a hard floor keeps synthetic
    demand from dropping to implausible zeros.
    """
    if floor < 0:
        raise ConfigurationError(f"floor must be >= 0, got {floor}")
    return np.maximum(np.asarray(values, dtype=float), floor)
