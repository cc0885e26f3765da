"""Unit tests for TrapChain and PlacementState."""

import pytest

from repro.compiler.placement_state import PlacementState, TrapChain
from repro.hardware import build_device


class TestTrapChain:
    def test_insert_and_order(self):
        chain = TrapChain("T0", 5)
        chain.insert(1, "tail")
        chain.insert(2, "tail")
        chain.insert(3, "head")
        assert chain.ions == (3, 1, 2)

    def test_capacity_enforced(self):
        chain = TrapChain("T0", 2, [1, 2])
        with pytest.raises(ValueError):
            chain.insert(3, "tail")

    def test_overfill_allowed_when_requested(self):
        chain = TrapChain("T0", 2, [1, 2])
        chain.insert(3, "tail", allow_overfill=True)
        assert len(chain) == 3
        with pytest.raises(ValueError):
            chain.insert(4, "tail", allow_overfill=True)

    def test_duplicate_ion_rejected(self):
        chain = TrapChain("T0", 5, [1])
        with pytest.raises(ValueError):
            chain.insert(1, "tail")

    def test_remove_returns_index(self):
        chain = TrapChain("T0", 5, [4, 5, 6])
        assert chain.remove(5) == 1
        assert chain.ions == (4, 6)

    def test_index_and_distance(self):
        chain = TrapChain("T0", 5, [7, 8, 9, 10])
        assert chain.index_of(9) == 2
        # ions strictly between two members, as the compiler computes it
        assert abs(chain.index_of(7) - chain.index_of(10)) - 1 == 2
        assert abs(chain.index_of(8) - chain.index_of(9)) - 1 == 0

    def test_unknown_ion(self):
        with pytest.raises(KeyError):
            TrapChain("T0", 5, [1]).index_of(9)

    def test_end_helpers(self):
        chain = TrapChain("T0", 5, [1, 2, 3])
        assert chain.ion_at_end("head") == 1
        assert chain.ion_at_end("tail") == 3
        assert chain.end_index("tail") == 2

    def test_ion_at_end_empty(self):
        with pytest.raises(ValueError):
            TrapChain("T0", 5).ion_at_end("head")

    def test_swap_adjacent(self):
        chain = TrapChain("T0", 5, [1, 2, 3])
        assert chain.hop(0, 1) == 2
        assert chain.ions == (2, 1, 3)
        assert chain.hop(2, -1) == 1
        assert chain.ions == (2, 3, 1)

    def test_swap_non_adjacent_rejected(self):
        chain = TrapChain("T0", 5, [1, 2, 3])
        for position, step in ((0, 2), (0, -1), (2, 1), (3, -1)):
            with pytest.raises(ValueError):
                chain.hop(position, step)
        assert chain.ions == (1, 2, 3)

    def test_free_space(self):
        assert TrapChain("T0", 5, [1, 2]).free_space == 3


class TestPlacementState:
    @pytest.fixture
    def device(self):
        return build_device("L3", trap_capacity=4, num_qubits=6)

    @pytest.fixture
    def state(self, device):
        state = PlacementState(device)
        for qubit in range(4):
            state.load_ion(qubit, "T0" if qubit < 2 else "T1", qubit)
        return state

    def test_loading(self, state):
        assert state.trap_of_qubit(0) == "T0"
        assert state.trap_of_qubit(3) == "T1"
        assert state.occupancy() == {"T0": 2, "T1": 2, "T2": 0}

    def test_double_load_rejected(self, state):
        with pytest.raises(ValueError):
            state.load_ion(0, "T2", 0)

    def test_load_into_full_trap_rejected(self, device):
        state = PlacementState(device)
        for ion in range(4):
            state.load_ion(ion, "T0", ion)
        with pytest.raises(ValueError):
            state.load_ion(4, "T0", 4)

    def test_split_and_merge_cycle(self, state):
        state.split("T0", 1)
        assert state.trap_of_ion(1) is None
        state.merge("T2", 1, "tail")
        assert state.trap_of_ion(1) == "T2"
        assert state.trap_of_qubit(1) == "T2"
        state.validate()

    def test_merge_requires_transit(self, state):
        with pytest.raises(ValueError):
            state.merge("T2", 0, "tail")

    def test_swap_states_rebinds_qubits(self, state):
        state.swap_states(0, 1)
        assert state.ion_of_qubit(0) == 1
        assert state.ion_of_qubit(1) == 0
        assert state.qubit_of_ion(0) == 1
        state.validate()

    def test_swap_positions(self, state):
        assert state.chain("T0").hop(0, 1) == 1
        assert state.chain("T0").ions == (1, 0)
        state.validate()

    def test_unknown_qubit(self, state):
        with pytest.raises(KeyError):
            state.ion_of_qubit(99)

    def test_snapshot_placement(self, state):
        placement = state.snapshot_placement()
        assert placement.qubit_to_ion == {0: 0, 1: 1, 2: 2, 3: 3}
        assert placement.trap_chains["T0"] == (0, 1)
        assert placement.trap_of_qubit(2) == "T1"
        assert placement.occupancy()["T1"] == 2

    def test_free_space(self, state):
        assert state.free_space("T0") == 2
        assert state.free_space("T2") == 4

    def test_validate_catches_corruption(self, state):
        # Simulate a bookkeeping bug: an ion recorded in a trap it is not in.
        state._ion_trap[0] = "T2"
        with pytest.raises(AssertionError):
            state.validate()
