"""Unit tests for the motional heating model (paper Section VII.B)."""

import pytest

from repro.models.heating import HeatingModel
from repro.models.params import HeatingParams


@pytest.fixture
def model():
    return HeatingModel(HeatingParams(k1=0.1, k2=0.01, k_junction=0.01))


class TestSplit:
    def test_energy_conserved_plus_k1_each(self, model):
        remaining, split = model.split(chain_energy=1.0, chain_size=10, split_size=1)
        # Conservation: the pre-existing energy is divided, each part gains k1.
        assert remaining + split == pytest.approx(1.0 + 2 * 0.1)

    def test_proportional_division(self, model):
        remaining, split = model.split(chain_energy=2.0, chain_size=4, split_size=1)
        assert split == pytest.approx(2.0 * 0.25 + 0.1)
        assert remaining == pytest.approx(2.0 * 0.75 + 0.1)

    def test_cold_chain_split(self, model):
        remaining, split = model.split(0.0, 5, 1)
        assert remaining == pytest.approx(0.1)
        assert split == pytest.approx(0.1)

    def test_split_whole_chain(self, model):
        remaining, split = model.split(1.0, 3, 3)
        assert remaining == 0.0
        assert split == pytest.approx(1.1)

    def test_invalid_sizes(self, model):
        with pytest.raises(ValueError):
            model.split(0.0, 0, 1)
        with pytest.raises(ValueError):
            model.split(0.0, 3, 4)
        with pytest.raises(ValueError):
            model.split(0.0, 3, 0)

    def test_negative_energy_rejected(self, model):
        with pytest.raises(ValueError):
            model.split(-1.0, 3, 1)


class TestMergeAndMove:
    def test_merge_sums_plus_k1(self, model):
        assert model.merge(0.5, 0.3) == pytest.approx(0.8 + 0.1)

    def test_merge_cold_chains(self, model):
        assert model.merge(0.0, 0.0) == pytest.approx(0.1)

    def test_move_adds_k2_per_segment(self, model):
        assert model.move(0.0, 3) == pytest.approx(0.03)

    def test_move_zero_segments(self, model):
        assert model.move(0.5, 0) == pytest.approx(0.5)

    def test_junction_crossing(self, model):
        assert model.cross_junction(0.2, 2) == pytest.approx(0.22)

    def test_negative_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.merge(-0.1, 0.0)
        with pytest.raises(ValueError):
            model.move(-0.1, 1)
        with pytest.raises(ValueError):
            model.move(0.1, -1)


class TestCompositeCosts:
    def test_round_trip_adds_fixed_heat(self, model):
        """A split followed by a merge back adds 3*k1 to the system in total."""

        remaining, split = model.split(1.0, 10, 1)
        merged = model.merge(remaining, split)
        assert merged == pytest.approx(1.0 + 3 * 0.1)

    def test_ion_swap_hop_cost(self, model):
        """One IS hop (split pair, merge back) adds 3*k1 regardless of energy."""

        for energy in (0.0, 1.0, 7.5):
            remaining, pair = model.split(energy, 8, 2)
            assert model.merge(remaining, pair) == pytest.approx(energy + 0.3)

    def test_paper_default_constants(self):
        params = HeatingParams()
        assert params.k1 == pytest.approx(0.1)
        assert params.k2 == pytest.approx(0.01)

    def test_validation_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            HeatingModel(HeatingParams(k1=-0.1))
