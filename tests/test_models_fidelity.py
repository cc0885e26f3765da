"""Unit tests for the gate fidelity model (paper equation 1)."""

import math

import pytest

from repro.models.fidelity import FidelityModel, GateErrorBreakdown
from repro.models.params import FidelityParams


@pytest.fixture
def model():
    return FidelityModel(FidelityParams(
        background_heating_rate=1e-6,
        laser_instability_prefactor=1e-4,
        single_qubit_error=1e-4,
        measurement_error=3e-3,
    ))


class TestEquationOne:
    def test_background_term(self, model):
        breakdown = model.two_qubit_error(duration=200.0, chain_length=10,
                                          motional_energy=0.0)
        assert breakdown.background == pytest.approx(200.0 * 1e-6)

    def test_motional_term_cold_chain(self, model):
        breakdown = model.two_qubit_error(duration=0.0, chain_length=10,
                                          motional_energy=0.0)
        expected_a = 1e-4 * 10 / math.log(10)
        assert breakdown.motional == pytest.approx(expected_a)

    def test_motional_term_scales_with_energy(self, model):
        cold = model.two_qubit_error(duration=0.0, chain_length=10, motional_energy=0.0)
        hot = model.two_qubit_error(duration=0.0, chain_length=10, motional_energy=5.0)
        assert hot.motional == pytest.approx(cold.motional * 11.0)

    def test_negative_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.two_qubit_error(duration=-1.0, chain_length=10, motional_energy=0.0)
        with pytest.raises(ValueError):
            model.two_qubit_error(duration=1.0, chain_length=10, motional_energy=-0.5)


class TestLaserInstability:
    def test_grows_with_chain_length(self, model):
        assert model.laser_instability(35) > model.laser_instability(20)

    def test_paper_ratio_20_to_35(self, model):
        """Section IX.A: A grows by ~1.5x from 20 to 35 ions."""

        ratio = model.laser_instability(35) / model.laser_instability(20)
        assert 1.4 < ratio < 1.6

    def test_requires_two_ions(self, model):
        with pytest.raises(ValueError):
            model.laser_instability(1)


class TestConstantErrors:
    def test_single_qubit_fidelity(self, model):
        assert model.single_qubit_fidelity() == pytest.approx(1.0 - 1e-4)

    def test_measurement_fidelity(self, model):
        assert model.measurement_fidelity() == pytest.approx(1.0 - 3e-3)

    def test_breakdown_properties(self):
        breakdown = GateErrorBreakdown(background=0.01, motional=0.02)
        assert breakdown.total == pytest.approx(0.03)
        assert breakdown.fidelity == pytest.approx(0.97)

    def test_breakdown_fidelity_clamped(self):
        assert GateErrorBreakdown(background=0.9, motional=0.9).fidelity == 0.0


class TestDefaults:
    def test_default_background_negligible_vs_motional(self):
        """Figure 6g: the motional term dominates the background term."""

        model = FidelityModel()
        breakdown = model.two_qubit_error(duration=250.0, chain_length=20,
                                          motional_energy=10.0)
        assert breakdown.motional > 5 * breakdown.background

    def test_default_isolated_gate_is_good(self):
        """A two-qubit gate in a cold, small chain should be ~99.9%+."""

        model = FidelityModel()
        breakdown = model.two_qubit_error(duration=150.0, chain_length=15,
                                          motional_energy=0.0)
        assert 1.0 - breakdown.total > 0.999

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FidelityModel(FidelityParams(single_qubit_error=1.5))
        with pytest.raises(ValueError):
            FidelityModel(FidelityParams(background_heating_rate=-1.0))
