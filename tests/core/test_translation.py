"""Tests for the end-to-end QoS translation."""

import numpy as np
import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import case_study_qos
from repro.core.translation import QoSTranslator
from repro.exceptions import TranslationError
from repro.traces.calendar import TraceCalendar
from repro.traces.trace import DemandTrace


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=5)


@pytest.fixture
def translator_60():
    return QoSTranslator(PoolCommitments.of(theta=0.6))


@pytest.fixture
def translator_95():
    return QoSTranslator(PoolCommitments.of(theta=0.95))


def spiky_trace(cal, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0, 0.4, cal.n_observations)
    spikes = rng.random(cal.n_observations) < 0.01
    values[spikes] *= 6.0
    return DemandTrace("spiky", values, cal)


class TestBasicTranslation:
    def test_constant_trace_strict_qos(self, cal, translator_60):
        demand = DemandTrace("c", np.full(cal.n_observations, 2.0), cal)
        result = translator_60.translate(demand, case_study_qos(m_degr_percent=0))
        # Everything below the cap: total allocation = demand / U_low.
        total = result.pair.total().values
        assert np.allclose(total, 4.0)
        assert result.d_new_max == 2.0
        assert result.cap_reduction == 0.0

    def test_partition_respects_breakpoint(self, cal, translator_60):
        demand = spiky_trace(cal)
        result = translator_60.translate(demand, case_study_qos(m_degr_percent=0))
        p = result.breakpoint
        cap = result.d_new_max
        burst = 2.0  # 1 / U_low
        assert result.pair.cos1.peak() <= p * cap * burst + 1e-9

    def test_high_theta_all_in_cos2(self, cal, translator_95):
        demand = spiky_trace(cal)
        result = translator_95.translate(demand, case_study_qos(m_degr_percent=0))
        assert result.breakpoint == 0.0
        assert result.pair.cos1.peak() == 0.0
        assert result.pair.cos2.peak() > 0.0

    def test_total_allocation_equals_capped_demand_over_u_low(
        self, cal, translator_60
    ):
        demand = spiky_trace(cal)
        result = translator_60.translate(demand, case_study_qos())
        expected = np.minimum(demand.values, result.d_new_max) / 0.5
        np.testing.assert_allclose(result.pair.total().values, expected)

    def test_max_allocation_property(self, cal, translator_60):
        demand = spiky_trace(cal)
        result = translator_60.translate(demand, case_study_qos())
        assert result.max_allocation == pytest.approx(result.d_new_max / 0.5)


class TestDegradationBudget:
    def test_m_degr_reduces_cap(self, cal, translator_60):
        demand = spiky_trace(cal)
        strict = translator_60.translate(demand, case_study_qos(m_degr_percent=0))
        relaxed = translator_60.translate(demand, case_study_qos(m_degr_percent=3))
        assert relaxed.d_new_max <= strict.d_new_max
        assert relaxed.cap_reduction >= strict.cap_reduction

    def test_degraded_fraction_within_budget(self, cal, translator_60):
        demand = spiky_trace(cal)
        result = translator_60.translate(demand, case_study_qos(m_degr_percent=3))
        assert result.degraded_fraction <= 0.03 + 1e-12

    def test_strict_qos_no_degradation(self, cal, translator_60):
        demand = spiky_trace(cal)
        result = translator_60.translate(demand, case_study_qos(m_degr_percent=0))
        assert result.degraded_fraction == 0.0


class TestTimeLimit:
    def test_t_degr_limits_runs(self, cal, translator_60):
        # A trace engineered with a long high plateau.
        values = np.ones(cal.n_observations)
        values[100:150] = 5.0
        demand = DemandTrace("plateau", values, cal)
        no_limit = translator_60.translate(demand, case_study_qos(m_degr_percent=3))
        limited = translator_60.translate(
            demand, case_study_qos(m_degr_percent=3, t_degr_minutes=30)
        )
        assert limited.longest_degraded_run_slots <= 6  # 30 min at 5-min slots
        assert limited.d_new_max >= no_limit.d_new_max
        assert limited.time_limited is not None
        assert no_limit.time_limited is None

    def test_t_degr_reduces_degraded_fraction(self, cal, translator_95):
        demand = spiky_trace(cal, seed=3)
        no_limit = translator_95.translate(demand, case_study_qos(m_degr_percent=3))
        limited = translator_95.translate(
            demand, case_study_qos(m_degr_percent=3, t_degr_minutes=30)
        )
        assert limited.degraded_fraction <= no_limit.degraded_fraction + 1e-12


class TestTranslateMany:
    def test_shared_qos(self, cal, translator_60):
        demands = [spiky_trace(cal, seed=i).renamed(f"w{i}") for i in range(3)]
        results = translator_60.translate_many(demands, case_study_qos())
        assert set(results) == {"w0", "w1", "w2"}

    def test_per_name_qos(self, cal, translator_60):
        demands = [spiky_trace(cal, seed=i).renamed(f"w{i}") for i in range(2)]
        qos_map = {
            "w0": case_study_qos(m_degr_percent=0),
            "w1": case_study_qos(m_degr_percent=3),
        }
        results = translator_60.translate_many(demands, qos_map)
        assert results["w0"].cap_reduction <= results["w1"].cap_reduction + 1e-12

    def test_missing_qos_raises(self, cal, translator_60):
        demands = [spiky_trace(cal).renamed("known")]
        with pytest.raises(TranslationError):
            translator_60.translate_many(demands, {"other": case_study_qos()})

    def test_duplicate_names_raise(self, cal, translator_60):
        demands = [spiky_trace(cal), spiky_trace(cal)]
        with pytest.raises(TranslationError):
            translator_60.translate_many(demands, case_study_qos())


class TestTranslateItems:
    def test_pairs_are_rows_of_one_read_only_matrix_per_class(
        self, cal, translator_60
    ):
        demands = [spiky_trace(cal, seed=i).renamed(f"w{i}") for i in range(3)]
        results = translator_60.translate_items(
            [(demand, case_study_qos()) for demand in demands]
        )
        for cos in ("cos1", "cos2"):
            matrix = getattr(results[0].pair, cos).values.base
            assert matrix.shape == (3, cal.n_observations)
            assert not matrix.flags.writeable
            for row, result in enumerate(results):
                values = getattr(result.pair, cos).values
                assert values.base is matrix
                assert np.shares_memory(values, matrix[row])

    def test_rows_hold_what_one_at_a_time_translation_gives(
        self, cal, translator_60
    ):
        demands = [spiky_trace(cal, seed=i).renamed(f"w{i}") for i in range(3)]
        qos = case_study_qos(m_degr_percent=3, t_degr_minutes=30)
        together = translator_60.translate_items(
            [(demand, qos) for demand in demands]
        )
        for demand, result in zip(demands, together):
            alone = translator_60.translate(demand, qos).pair
            assert alone.cos1.values.tobytes() == result.pair.cos1.values.tobytes()
            assert alone.cos2.values.tobytes() == result.pair.cos2.values.tobytes()

    def test_one_calendar_per_call(self, cal, translator_60):
        other = TraceCalendar(weeks=1, slot_minutes=10)
        demands = [spiky_trace(cal).renamed("a"), spiky_trace(other).renamed("b")]
        with pytest.raises(TranslationError, match="share one calendar"):
            translator_60.translate_items(
                [(demand, case_study_qos()) for demand in demands]
            )

    def test_no_items(self, translator_60):
        assert translator_60.translate_items([]) == []
        assert translator_60.instrumentation.counters()[
            "translation.workloads"
        ] == 0


class TestInternalGuarantees:
    def test_worst_case_ceiling_respected_across_thetas(self, cal):
        """Utilization never exceeds U_degr under the worst-case model,
        for either theta — the translator self-checks this."""
        demand = spiky_trace(cal, seed=9)
        for theta in (0.6, 0.75, 0.95):
            translator = QoSTranslator(PoolCommitments.of(theta=theta))
            for t_degr in (None, 120.0, 30.0):
                translator.translate(
                    demand, case_study_qos(m_degr_percent=3, t_degr_minutes=t_degr)
                )

    def test_zero_trace(self, cal, translator_60):
        demand = DemandTrace("zero", np.zeros(cal.n_observations), cal)
        result = translator_60.translate(demand, case_study_qos())
        assert result.d_new_max == 0.0
        assert result.pair.total().peak() == 0.0

    def test_single_spike_trace(self, cal, translator_60):
        values = np.zeros(cal.n_observations)
        values[500] = 3.0
        demand = DemandTrace("single", values, cal)
        result = translator_60.translate(demand, case_study_qos())
        assert result.degraded_fraction <= 0.03
