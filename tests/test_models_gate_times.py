"""Unit tests for the MS gate-time models (paper Section VII.A)."""

import pytest

from repro.models.gate_times import (
    FM_MIN_GATE_TIME,
    GateImplementation,
    MIN_GATE_TIME,
    am1_gate_time,
    am2_gate_time,
    fm_gate_time,
    gate_time,
    pm_gate_time,
)


class TestFormulas:
    def test_am1_matches_paper(self):
        # tau = 100*d - 22
        assert am1_gate_time(1) == pytest.approx(78.0)
        assert am1_gate_time(5) == pytest.approx(478.0)

    def test_am1_clamped_for_adjacent_ions(self):
        assert am1_gate_time(0) == MIN_GATE_TIME

    def test_am2_matches_paper(self):
        # tau = 38*d + 10
        assert am2_gate_time(0) == pytest.approx(10.0)
        assert am2_gate_time(10) == pytest.approx(390.0)

    def test_pm_matches_paper(self):
        # tau = 5*d + 160
        assert pm_gate_time(0) == pytest.approx(160.0)
        assert pm_gate_time(20) == pytest.approx(260.0)

    def test_fm_matches_paper(self):
        # tau = max(13.33*N - 54, 100)
        assert fm_gate_time(20) == pytest.approx(13.33 * 20 - 54)
        assert fm_gate_time(30) == pytest.approx(13.33 * 30 - 54)

    def test_fm_floor_below_12_ions(self):
        assert fm_gate_time(2) == FM_MIN_GATE_TIME
        assert fm_gate_time(11) == FM_MIN_GATE_TIME

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            am1_gate_time(-1)

    def test_fm_chain_too_short(self):
        with pytest.raises(ValueError):
            fm_gate_time(1)


class TestScalingTrends:
    def test_am_gates_grow_with_distance(self):
        assert am1_gate_time(10) > am1_gate_time(2)
        assert am2_gate_time(10) > am2_gate_time(2)

    def test_pm_weak_distance_dependence(self):
        # PM grows much more slowly with distance than AM1 (5 vs 100 us/ion).
        pm_growth = pm_gate_time(20) - pm_gate_time(0)
        am1_growth = am1_gate_time(20) - am1_gate_time(0)
        assert pm_growth * 10 < am1_growth

    def test_fm_independent_of_distance(self):
        assert gate_time("FM", distance=0, chain_length=20) == gate_time(
            "FM", distance=15, chain_length=20)

    def test_fm_grows_with_chain_length(self):
        assert fm_gate_time(35) > fm_gate_time(20) > fm_gate_time(15)

    def test_am_faster_than_fm_for_adjacent_ions_in_long_chains(self):
        # The reason AM2 wins for nearest-neighbour workloads like QAOA.
        assert am2_gate_time(0) < fm_gate_time(20)

    def test_fm_faster_than_am1_for_distant_ions(self):
        # The reason FM wins for long-range workloads like QFT.
        assert fm_gate_time(20) < am1_gate_time(15)


class TestDispatch:
    def test_from_name_accepts_strings(self):
        assert GateImplementation.from_name("fm") is GateImplementation.FM
        assert GateImplementation.from_name("Am1") is GateImplementation.AM1

    def test_from_name_accepts_enum(self):
        assert GateImplementation.from_name(GateImplementation.PM) is GateImplementation.PM

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            GateImplementation.from_name("XX")

    @pytest.mark.parametrize("impl", ["AM1", "AM2", "PM", "FM"])
    def test_gate_time_positive(self, impl):
        assert gate_time(impl, distance=3, chain_length=10) > 0

    def test_gate_time_validates_chain(self):
        with pytest.raises(ValueError):
            gate_time("FM", distance=0, chain_length=1)

    def test_gate_time_validates_distance_vs_chain(self):
        with pytest.raises(ValueError):
            gate_time("AM1", distance=9, chain_length=10)
