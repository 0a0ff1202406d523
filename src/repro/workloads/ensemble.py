"""The 26-application case-study ensemble.

The paper's case study (Section VII) uses four weeks of 5-minute CPU
demand traces from 26 enterprise order-entry applications. The real traces
are proprietary; :func:`case_study_ensemble` builds a synthetic stand-in
whose *shape* matches the published characterisation (Figure 6):

* two applications whose demand is dominated by a handful of extreme
  spikes (97th-99.9th percentile far below peak);
* roughly the next eight applications with their top 3% of demand between
  2x and 10x the remaining observations;
* the rest progressively smoother, through ordinary bursty interactive
  workloads down to near-constant services.

Aggregate scale is chosen so the Table I consolidation lands in the same
regime as the paper: a sum of per-application peak CPU allocations around
two hundred 1-CPU units, consolidated onto a handful of 16-way servers.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exceptions import ConfigurationError, InvariantError
from repro.util.rng import SeedSequenceFactory
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.patterns import (
    batch_window_pattern,
    business_hours_pattern,
    double_peak_pattern,
    flat_pattern,
)

CASE_STUDY_APP_COUNT = 26


def case_study_specs() -> list[WorkloadSpec]:
    """The 26 workload profiles, ordered spikiest first (as in Figure 6)."""
    specs: list[WorkloadSpec] = []

    # Apps 0-1: extreme spikers. Almost all observations are small; rare
    # spikes 8-15x dominate the peak, so even the 99.9th percentile sits
    # far below 100% of peak.
    for index, (magnitude, rate) in enumerate([(9.0, 4.0), (7.0, 4.5)]):
        specs.append(
            WorkloadSpec(
                name=f"app-{index:02d}",
                pattern=business_hours_pattern(),
                peak_cpus=0.8,
                noise_sigma=0.18,
                spike_rate_per_week=rate,
                spike_magnitude=magnitude,
                spike_duration_slots=6.0,
                spike_magnitude_tail=1.8,
                ceiling_cpus=5.0,
            )
        )

    # Apps 2-9: strong spikers — top 3% of demand 2-10x the rest.
    spiky_params = [
        (4.5, 3.0, 8.0),
        (4.2, 3.5, 7.0),
        (4.0, 4.0, 6.0),
        (3.8, 4.0, 9.0),
        (3.6, 5.0, 5.0),
        (3.4, 5.0, 7.0),
        (3.2, 6.0, 6.0),
        (3.0, 6.0, 8.0),
    ]
    for offset, (magnitude, rate, duration) in enumerate(spiky_params):
        index = 2 + offset
        pattern = (
            double_peak_pattern() if index % 2 == 0 else business_hours_pattern()
        )
        specs.append(
            WorkloadSpec(
                name=f"app-{index:02d}",
                pattern=pattern,
                peak_cpus=0.8 + 0.2 * offset,
                noise_sigma=0.28,
                spike_rate_per_week=rate,
                spike_magnitude=magnitude,
                spike_duration_slots=duration,
                spike_magnitude_tail=2.2,
                ceiling_cpus=6.0,
            )
        )

    # Apps 10-19: ordinary bursty interactive applications — noticeable
    # noise, mild spikes.
    for offset in range(10):
        index = 10 + offset
        pattern_choice = offset % 3
        if pattern_choice == 0:
            pattern = business_hours_pattern(ramp_start=6 + offset % 3)
        elif pattern_choice == 1:
            pattern = double_peak_pattern(
                morning_peak=9 + offset % 2, afternoon_peak=14 + offset % 3
            )
        else:
            pattern = batch_window_pattern(window_start=offset % 6, window_hours=5)
        specs.append(
            WorkloadSpec(
                name=f"app-{index:02d}",
                pattern=pattern,
                peak_cpus=1.2 + 0.3 * offset,
                noise_sigma=0.30,
                noise_correlation=0.8,
                spike_rate_per_week=1.0,
                spike_magnitude=1.6,
                spike_duration_slots=5.0,
                spike_magnitude_tail=3.0,
                ceiling_cpus=6.0,
            )
        )

    # Apps 20-25: smooth, high-percentile workloads — steady services
    # whose 97th percentile is close to peak.
    for offset in range(6):
        index = 20 + offset
        pattern = flat_pattern() if offset % 2 == 0 else business_hours_pattern()
        specs.append(
            WorkloadSpec(
                name=f"app-{index:02d}",
                pattern=pattern,
                peak_cpus=1.5 + 0.4 * offset,
                noise_sigma=0.10,
                noise_correlation=0.9,
                spike_rate_per_week=0.0,
                ceiling_cpus=6.0,
            )
        )

    if len(specs) != CASE_STUDY_APP_COUNT:
        # Not an assert: the Table I reproduction depends on exactly 26
        # applications, and asserts are stripped under ``python -O``.
        raise InvariantError(
            f"case_study_specs built {len(specs)} specs, expected "
            f"{CASE_STUDY_APP_COUNT}"
        )
    return specs


def case_study_ensemble(
    seed: int = 2006, weeks: int = 4, slot_minutes: int = 5
) -> list[DemandTrace]:
    """Generate the 26-application case-study trace ensemble.

    Parameters mirror the paper: four weeks of observations every five
    minutes. The default seed pins the exact ensemble the benchmarks and
    EXPERIMENTS.md report against; pass another seed for robustness
    studies.
    """
    calendar = TraceCalendar(weeks=weeks, slot_minutes=slot_minutes)
    generator = WorkloadGenerator(seed=seed)
    return generator.generate_many(case_study_specs(), calendar)


def scaled_specs(n_apps: int, seed: int = 2006) -> list[WorkloadSpec]:
    """``n_apps`` workload profiles tiled from the 26 case-study ones.

    Replica 0 is the case-study profile set verbatim (so
    ``scaled_specs(26, seed)`` is exactly :func:`case_study_specs`);
    each further replica re-uses the 26 shapes under new names
    (``app-NN-rK``) with a deterministic, seeded perturbation of the
    demand scale — the population stays Figure-6-shaped (spikers
    through smooth services in the published proportions) while every
    application's trace is distinct. Used to study how planning scales
    beyond the paper's ensemble (see ``benchmarks/record``).
    """
    if n_apps < 1:
        raise ConfigurationError(f"n_apps must be >= 1, got {n_apps}")
    base = case_study_specs()
    specs: list[WorkloadSpec] = []
    replica = 0
    while len(specs) < n_apps:
        if replica == 0:
            clones = base
        else:
            # One independent perturbation stream per replica: replica
            # K's scales never depend on how many replicas are built.
            rng = SeedSequenceFactory(seed).generator("replica", replica)
            factors = rng.uniform(0.7, 1.3, size=len(base))
            clones = [
                replace(
                    spec,
                    name=f"{spec.name}-r{replica}",
                    peak_cpus=spec.peak_cpus * float(factor),
                )
                for spec, factor in zip(base, factors)
            ]
        specs.extend(clones[: n_apps - len(specs)])
        replica += 1
    return specs


def scaled_ensemble(
    n_apps: int,
    seed: int = 2006,
    weeks: int = 4,
    slot_minutes: int = 5,
) -> list[DemandTrace]:
    """Generate an ``n_apps``-application ensemble shaped like the study.

    Deterministic in ``(n_apps, seed, weeks, slot_minutes)``; with
    ``n_apps=26`` it reproduces :func:`case_study_ensemble` exactly.
    Prefer coarser calendars (fewer weeks, larger slots) for large
    ``n_apps`` — trace memory grows with both dimensions.
    """
    calendar = TraceCalendar(weeks=weeks, slot_minutes=slot_minutes)
    generator = WorkloadGenerator(seed=seed)
    return generator.generate_many(scaled_specs(n_apps, seed), calendar)
