"""Unit tests for chain reordering and routing decisions."""

import pytest

from repro.compiler.builder import ProgramBuilder
from repro.compiler.placement_state import PlacementState
from repro.compiler.reorder import reorder_to_end
from repro.compiler.routing import Router
from repro.hardware import build_device
from repro.ir.dag import interaction_adjacency
from repro.isa.operations import IonSwapOp, SwapGateOp


def make_state(device, layout):
    """layout: {trap_name: [qubit, ...]} with ion id == qubit id."""

    state = PlacementState(device)
    for trap_name, qubits in layout.items():
        for qubit in qubits:
            state.load_ion(qubit, trap_name, qubit)
    return state


class TestReorderGS:
    @pytest.fixture
    def device(self):
        return build_device("L2", trap_capacity=6, num_qubits=8, reorder="GS")

    def test_no_reorder_when_already_at_end(self, device):
        state = make_state(device, {"T0": [0, 1, 2]})
        builder = ProgramBuilder()
        assert reorder_to_end(builder, state, device, 2, "T0", "tail") == 0
        assert len(builder) == 0

    def test_single_swap_to_any_end(self, device):
        state = make_state(device, {"T0": [0, 1, 2, 3]})
        builder = ProgramBuilder()
        emitted = reorder_to_end(builder, state, device, 1, "T0", "tail")
        assert emitted == 1
        op = builder.operations[0]
        assert isinstance(op, SwapGateOp)
        assert op.ion_distance == 1  # ions 1 and 3 have one ion between them
        # The qubit's state now lives on the tail ion; the chain order is fixed.
        assert state.ion_of_qubit(1) == 3
        assert state.chain("T0").ions == (0, 1, 2, 3)

    def test_swap_to_head(self, device):
        state = make_state(device, {"T0": [0, 1, 2, 3]})
        builder = ProgramBuilder()
        reorder_to_end(builder, state, device, 2, "T0", "head")
        assert state.ion_of_qubit(2) == 0

    def test_wrong_trap_rejected(self, device):
        state = make_state(device, {"T0": [0, 1], "T1": [2]})
        with pytest.raises(ValueError):
            reorder_to_end(ProgramBuilder(), state, device, 2, "T0", "tail")


class TestReorderIS:
    @pytest.fixture
    def device(self):
        return build_device("L2", trap_capacity=6, num_qubits=8, reorder="IS")

    def test_hop_count_equals_distance(self, device):
        state = make_state(device, {"T0": [0, 1, 2, 3, 4]})
        builder = ProgramBuilder()
        emitted = reorder_to_end(builder, state, device, 1, "T0", "tail")
        assert emitted == 3
        assert all(isinstance(op, IonSwapOp) for op in builder.operations)
        # The physical ion moved; the binding did not change.
        assert state.ion_of_qubit(1) == 1
        assert state.chain("T0").ions == (0, 2, 3, 4, 1)

    def test_hops_toward_head(self, device):
        state = make_state(device, {"T0": [0, 1, 2]})
        builder = ProgramBuilder()
        assert reorder_to_end(builder, state, device, 2, "T0", "head") == 2
        assert state.chain("T0").ions == (2, 0, 1)


class TestRouter:
    @pytest.fixture
    def device(self):
        return build_device("L3", trap_capacity=4, num_qubits=8, buffer_ions=0)

    def test_local_gate_needs_no_plan(self, device):
        state = make_state(device, {"T0": [0, 1]})
        router = Router(state, device)
        assert router.plan_two_qubit_gate(0, 1) is None

    def test_moves_toward_free_space(self, device):
        state = make_state(device, {"T0": [0, 1, 2], "T1": [3]})
        router = Router(state, device)
        plan = router.plan_two_qubit_gate(0, 3)
        assert plan.gate_trap == "T1"
        assert plan.primary.qubit == 0
        assert plan.evictions == ()

    def test_full_destination_forces_other_direction(self, device):
        state = make_state(device, {"T0": [0, 1], "T1": [3, 4, 5, 6]})
        router = Router(state, device)
        plan = router.plan_two_qubit_gate(0, 3)
        assert plan.gate_trap == "T0"
        assert plan.primary.qubit == 3

    def test_affinity_moves_the_loosely_bound_qubit(self, device):
        # Qubit 0 interacts heavily with its trap mates; qubit 3 does not.
        state = make_state(device, {"T0": [0, 1], "T1": [3, 4]})
        weights = {(0, 1): 10, (0, 3): 1}
        router = Router(state, device, neighbours=interaction_adjacency(weights, 8))
        plan = router.plan_two_qubit_gate(0, 3)
        assert plan.primary.qubit == 3
        assert plan.gate_trap == "T0"

    def test_eviction_when_both_full(self, device):
        state = make_state(device, {"T0": [0, 1, 2, 3], "T1": [4, 5, 6, 7]})
        router = Router(state, device, next_use=lambda qubit: {5: 10}.get(qubit))
        plan = router.plan_two_qubit_gate(0, 4)
        assert len(plan.evictions) == 1
        eviction = plan.evictions[0]
        # Victim is a T1 resident other than the gate operands, and it goes to
        # the only trap with space (T2).
        assert eviction.qubit in {5, 6, 7}
        assert eviction.destination == "T2"
        # Victims with no future use are preferred over qubit 5 (used later).
        assert eviction.qubit != 5
        assert plan.all_shuttles[-1] == plan.primary

    def test_in_transit_qubit_rejected(self, device):
        state = make_state(device, {"T0": [0, 1], "T1": [2]})
        state.split("T0", 0)
        router = Router(state, device)
        with pytest.raises(ValueError):
            router.plan_two_qubit_gate(0, 2)

    def test_unknown_policy_rejected(self, device):
        state = make_state(device, {"T0": [0]})
        with pytest.raises(ValueError):
            Router(state, device, policy="random")

    def test_fixed_policy_always_moves_first_operand(self, device):
        state = make_state(device, {"T0": [0, 1], "T1": [2, 3]})
        router = Router(state, device, policy="fixed",
                        neighbours=interaction_adjacency({(0, 1): 100}, 8))
        plan = router.plan_two_qubit_gate(0, 2)
        assert plan.primary.qubit == 0
