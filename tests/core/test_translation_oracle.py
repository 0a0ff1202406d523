"""The in-place translation is the whole-array one, bit for bit.

``QoSTranslator._translate_into`` partitions each demand once, straight
into the allocation rows, and computes the utilization, the degraded
mask and its longest run in place. The oracle below is a frozen copy of
the translation as it was before: a fresh partition for the allocations,
a second one inside the utilization, fresh utilization and mask arrays,
the mask's longest run taken over a float copy, and the ``T_degr`` loop
built from the same pieces. Every :class:`TranslationResult` field and
every byte of the pair must match it, and so must the error a translation
raises.
"""

import numpy as np
import pytest

from repro.core.cos import PoolCommitments
from repro.core.degradation import new_max_demand, realized_cap_reduction
from repro.core.partition import breakpoint_fraction
from repro.core.qos import case_study_qos
from repro.core.time_limited import DEGRADED_TOLERANCE, TimeLimitedResult
from repro.core.translation import QoSTranslator
from repro.exceptions import TranslationError
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace
from repro.util.floats import isclose

# --- the frozen oracle ---------------------------------------------------


def _partition(values, cap, breakpoint_demand):
    capped = np.minimum(values, cap)
    cos1 = np.minimum(capped, breakpoint_demand)
    return cos1, capped - cos1


def _expected_utilization(values, cap, p, theta, u_low):
    cos1, cos2 = _partition(values, cap, p * cap)
    theta = 1.0 if isclose(theta, 1.0) else theta
    allocation = (cos1 + cos2 * theta) / u_low
    utilization = np.zeros_like(values)
    positive = allocation > 0
    utilization[positive] = values[positive] / allocation[positive]
    utilization[(~positive) & (values > 0)] = np.inf
    return utilization


def _runs(mask):
    """``(start, stop)`` of each run, found on the mask's float copy."""
    above = mask.astype(float) > 0.5
    if not above.any():
        return []
    deltas = np.diff(np.concatenate(([False], above, [False])).astype(np.int8))
    return list(zip(np.flatnonzero(deltas == 1), np.flatnonzero(deltas == -1)))


def _longest_run(mask):
    return max((int(stop - start) for start, stop in _runs(mask)), default=0)


def _degraded(values, utilization, u_high):
    return (utilization > u_high + DEGRADED_TOLERANCE) & (values > 0)


def _time_limited(values, cap, p, theta, u_low, u_high, max_run_slots):
    cap = float(cap)
    iterations = 0
    promotion = u_low / (u_high * (p * (1.0 - theta) + theta))
    while True:
        utilization = _expected_utilization(values, cap, p, theta, u_low)
        degraded = _degraded(values, utilization, u_high)
        violating = next(
            (
                float(values[start:stop].min())
                for start, stop in _runs(degraded)
                if stop - start > max_run_slots
            ),
            None,
        )
        if violating is None:
            break
        new_cap = violating * promotion
        cap = new_cap if new_cap > cap else np.nextafter(cap, np.inf)
        iterations += 1
    final = _degraded(
        values, _expected_utilization(values, cap, p, theta, u_low), u_high
    )
    return TimeLimitedResult(
        d_new_max=cap,
        iterations=iterations,
        longest_degraded_run=_longest_run(final),
        degraded_fraction=(
            float(np.count_nonzero(final)) / values.shape[0]
            if values.shape[0]
            else 0.0
        ),
    )


def _frozen_translation(theta, demand, qos):
    """Every field the translation reports, or the error it raises."""
    values = demand.values
    p = breakpoint_fraction(qos.u_low, qos.u_high, theta)
    cap = new_max_demand(demand, qos)
    time_limited = None
    if qos.t_degr_minutes is not None and qos.m_degr_percent > 0:
        time_limited = _time_limited(
            values,
            cap,
            p,
            theta,
            qos.u_low,
            qos.u_high,
            demand.calendar.slots_for_duration(qos.t_degr_minutes),
        )
        cap = time_limited.d_new_max
    cos1_demand, cos2_demand = _partition(values, cap, p * cap)
    burst = qos.acceptable.burst_factor
    utilization = _expected_utilization(values, cap, p, theta, qos.u_low)
    mask = _degraded(values, utilization, qos.u_high)
    degraded_fraction = (
        float(np.count_nonzero(mask)) / len(demand) if len(demand) else 0.0
    )
    budget = qos.m_degr_fraction
    if degraded_fraction > budget + 1e-9:
        raise TranslationError(
            f"internal error: workload {demand.name!r} has "
            f"{degraded_fraction:.4%} degraded observations, budget is "
            f"{budget:.4%}"
        )
    ceiling = qos.u_degr if qos.u_degr is not None else qos.u_high
    positive = values > 0
    if positive.any() and float(utilization[positive].max()) > ceiling + 1e-6:
        raise TranslationError(
            f"internal error: workload {demand.name!r} worst-case "
            f"utilization {float(utilization[positive].max()):.4f} exceeds "
            f"ceiling {ceiling}"
        )
    return {
        "cos1": (cos1_demand * burst).tobytes(),
        "cos2": (cos2_demand * burst).tobytes(),
        "breakpoint": repr(p),
        "d_max": repr(demand.peak()),
        "d_new_max": repr(cap),
        "cap_reduction": repr(realized_cap_reduction(demand, cap)),
        "degraded_fraction": repr(degraded_fraction),
        "longest_degraded_run_slots": repr(_longest_run(mask)),
        "time_limited": repr(time_limited),
    }


def _translation(theta, demand, qos):
    (result,) = QoSTranslator(PoolCommitments.of(theta=theta)).translate_items(
        [(demand, qos)]
    )
    return {
        "cos1": result.pair.cos1.values.tobytes(),
        "cos2": result.pair.cos2.values.tobytes(),
        **{
            name: repr(getattr(result, name))
            for name in (
                "breakpoint",
                "d_max",
                "d_new_max",
                "cap_reduction",
                "degraded_fraction",
                "longest_degraded_run_slots",
                "time_limited",
            )
        },
    }


def _outcome(translate, theta, demand, qos):
    try:
        return translate(theta, demand, qos)
    except TranslationError as error:
        return f"TranslationError: {error}"


# --- the cases -----------------------------------------------------------


def _lognormal(length, seed):
    return np.random.default_rng(seed).lognormal(0.0, 0.5, length)


def _demand(kind, calendar):
    length = calendar.n_observations
    if kind == "all_zero":
        values = np.zeros(length)
    elif kind == "constant":
        values = np.full(length, 2.0)
    elif kind == "single_spike":
        values = np.full(length, 1.0)
        values[length // 3] = 40.0
    elif kind == "spiky":
        values = _lognormal(length, 1)
        rng = np.random.default_rng(2)
        values[rng.random(length) < 0.01] *= 6.0
    elif kind == "degraded_at_both_ends":
        # The peak fills 2.5 % of the slots, at the start and the end,
        # so the degraded runs touch either end of the trace.
        values = _lognormal(length, 3)
        edge = max(1, length // 80)
        values[:edge] = values[-edge:] = 100.0
    elif kind == "starved":
        # The smallest subnormal demand: with CoS2 carrying it at a
        # theta below 1/2, the granted allocation rounds to 0.
        values = _lognormal(length, 4)
        rng = np.random.default_rng(5)
        values[rng.random(length) < 0.01] = 5e-324
        values[rng.random(length) < 0.05] = 0.0
    else:
        raise ValueError(kind)
    return DemandTrace(kind, values, calendar)


KINDS = (
    "all_zero",
    "constant",
    "single_spike",
    "spiky",
    "degraded_at_both_ends",
    "starved",
)

#: (theta, QoS) pairs: CoS1 carrying part of the demand (theta 0.6),
#: none of it (0.95) and the theta = 1 branch, each with no degradation,
#: a percentile cap, and a percentile cap under two T_degr limits.
MODES = [
    (theta, qos)
    for theta in (0.6, 0.95, 1.0)
    for qos in (
        case_study_qos(m_degr_percent=0),
        case_study_qos(m_degr_percent=3),
        case_study_qos(m_degr_percent=3, t_degr_minutes=30),
        case_study_qos(m_degr_percent=10, t_degr_minutes=120),
    )
] + [
    # U_low / U_high <= theta < 1/2: everything rides CoS2 at theta 0.4,
    # where a subnormal demand is granted nothing.
    (0.4, case_study_qos(m_degr_percent=0, u_low=0.3, u_high=0.9, u_degr=0.95)),
    (0.4, case_study_qos(m_degr_percent=3, u_low=0.3, u_high=0.9, u_degr=0.95)),
]

CALENDARS = {
    "1_week": TraceCalendar(weeks=1, slot_minutes=5),
    "52_weeks": TraceCalendar(weeks=52, slot_minutes=60),
}


class TestInPlaceTranslationIsTheOldOne:
    @pytest.mark.parametrize("calendar", sorted(CALENDARS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_field_and_byte(self, kind, calendar):
        demand = _demand(kind, CALENDARS[calendar])
        for theta, qos in MODES:
            assert _outcome(_translation, theta, demand, qos) == _outcome(
                _frozen_translation, theta, demand, qos
            ), (theta, qos)

    def test_the_corner_cases_reach_their_branches(self):
        """Starved slots raise, the T_degr loop runs, and degraded runs
        touch both ends — so the cases above test what they name."""
        week = CALENDARS["1_week"]
        starved = _demand("starved", week)
        theta, qos = MODES[-1]
        assert "inf exceeds" in _outcome(_translation, theta, starved, qos)
        ends = _demand("degraded_at_both_ends", week)
        theta, qos = MODES[1]
        (result,) = QoSTranslator(
            PoolCommitments.of(theta=theta)
        ).translate_items([(ends, qos)])
        above = ends.values > result.d_new_max
        assert above[0] and above[-1]
        theta, qos = MODES[2]
        (limited,) = QoSTranslator(
            PoolCommitments.of(theta=theta)
        ).translate_items([(ends, qos)])
        assert limited.time_limited.iterations > 0

    @pytest.mark.parametrize("kind", ["spiky", "degraded_at_both_ends"])
    def test_year_of_five_minute_slots(self, kind):
        demand = _demand(kind, TraceCalendar(weeks=52, slot_minutes=5))
        for theta, qos in MODES[:2] + MODES[4:6]:
            assert _outcome(_translation, theta, demand, qos) == _outcome(
                _frozen_translation, theta, demand, qos
            ), (theta, qos)
