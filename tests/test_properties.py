"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_circuit
from repro.hardware import build_device
from repro.ir.circuit import Circuit
from repro.ir.gate import Gate
from repro.isa.operations import GateOp, OpKind
from repro.models.fidelity import FidelityModel
from repro.models.gate_times import gate_time
from repro.models.heating import HeatingModel
from repro.models.params import FidelityParams, HeatingParams
from repro.sim import simulate


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
def random_circuits(max_qubits: int = 8, max_gates: int = 40):
    """Strategy producing random native-gate circuits."""

    @st.composite
    def build(draw):
        num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
        num_gates = draw(st.integers(min_value=0, max_value=max_gates))
        circuit = Circuit(num_qubits, name="random")
        for _ in range(num_gates):
            if draw(st.booleans()):
                qubit = draw(st.integers(0, num_qubits - 1))
                circuit.append(Gate("h", (qubit,)))
            else:
                qubit_a = draw(st.integers(0, num_qubits - 1))
                qubit_b = draw(st.integers(0, num_qubits - 1))
                if qubit_a == qubit_b:
                    continue
                circuit.append(Gate("cx", (qubit_a, qubit_b)))
        return circuit

    return build()


# --------------------------------------------------------------------------- #
# Heating model invariants
# --------------------------------------------------------------------------- #
@given(energy=st.floats(min_value=0.0, max_value=1e3),
       chain_size=st.integers(min_value=1, max_value=50),
       split_size=st.integers(min_value=1, max_value=50))
def test_split_conserves_energy_plus_k1(energy, chain_size, split_size):
    split_size = min(split_size, chain_size)
    model = HeatingModel(HeatingParams())
    remaining, split_off = model.split(energy, chain_size, split_size)
    # Energy is conserved up to the k1 quanta added to each resulting chain
    # (only one chain remains when the whole chain is split off).
    expected_extra = 0.1 if split_size == chain_size else 0.2
    assert remaining >= 0.0 and split_off >= 0.0
    assert math.isclose(remaining + split_off, energy + expected_extra,
                        rel_tol=1e-9, abs_tol=1e-9)


@given(energy_a=st.floats(min_value=0.0, max_value=1e3),
       energy_b=st.floats(min_value=0.0, max_value=1e3))
def test_merge_monotone(energy_a, energy_b):
    model = HeatingModel(HeatingParams())
    merged = model.merge(energy_a, energy_b)
    assert merged >= energy_a
    assert merged >= energy_b


@given(energy=st.floats(min_value=0.0, max_value=1e3),
       segments=st.integers(min_value=0, max_value=100))
def test_move_monotone(energy, segments):
    model = HeatingModel(HeatingParams())
    assert model.move(energy, segments) >= energy


# --------------------------------------------------------------------------- #
# Gate time and fidelity invariants
# --------------------------------------------------------------------------- #
@given(chain=st.integers(min_value=2, max_value=60),
       distance=st.integers(min_value=0, max_value=58),
       implementation=st.sampled_from(["AM1", "AM2", "PM", "FM"]))
def test_gate_time_positive_and_finite(chain, distance, implementation):
    distance = min(distance, chain - 2)
    duration = gate_time(implementation, distance=distance, chain_length=chain)
    assert 0.0 < duration < 1e5


@given(duration=st.floats(min_value=0.0, max_value=1e4),
       chain=st.integers(min_value=2, max_value=60),
       energy=st.floats(min_value=0.0, max_value=1e4))
def test_fidelity_bounded(duration, chain, energy):
    """Both error terms are non-negative, so ``1 - total`` never exceeds 1
    (the noise pass clamps it from below at ``min_fidelity``)."""

    model = FidelityModel(FidelityParams())
    breakdown = model.two_qubit_error(duration=duration, chain_length=chain,
                                      motional_energy=energy)
    assert breakdown.background >= 0.0 and breakdown.motional >= 0.0
    assert 1.0 - breakdown.total <= 1.0


@given(chain=st.integers(min_value=2, max_value=60),
       energy_low=st.floats(min_value=0.0, max_value=100.0),
       energy_delta=st.floats(min_value=0.0, max_value=100.0))
def test_fidelity_monotone_in_energy(chain, energy_low, energy_delta):
    model = FidelityModel(FidelityParams())
    low = model.two_qubit_error(duration=100.0, chain_length=chain,
                                motional_energy=energy_low)
    high = model.two_qubit_error(duration=100.0, chain_length=chain,
                                 motional_energy=energy_low + energy_delta)
    assert 1.0 - high.total <= 1.0 - low.total + 1e-12


# --------------------------------------------------------------------------- #
# Circuit / DAG invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(circuit=random_circuits())
def test_dag_topological_order_is_valid(circuit):
    # Dependencies point backwards, so program order is a topological order
    # of the front-end's edges; successors mirror predecessors.
    front = circuit.front_end()
    for gate in range(len(circuit)):
        for predecessor in front.predecessors[gate]:
            assert predecessor < gate
            assert gate in front.successors[predecessor]


# --------------------------------------------------------------------------- #
# Compile-and-simulate invariants on random circuits
# --------------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(circuit=random_circuits(max_qubits=8, max_gates=25),
       reorder=st.sampled_from(["GS", "IS"]),
       topology=st.sampled_from(["L3", "G2x2"]))
def test_compile_simulate_invariants(circuit, reorder, topology):
    device = build_device(topology, trap_capacity=6, num_qubits=8, reorder=reorder)
    program = compile_circuit(circuit, device)

    # Every application gate is preserved.
    assert program.count(OpKind.GATE_2Q) == circuit.num_two_qubit_gates
    assert program.count(OpKind.GATE_1Q) == circuit.num_single_qubit_gates

    # Dependencies always point backwards and annotations stay physical.
    for op in program.operations:
        assert all(dep < op.op_id for dep in op.dependencies)
        if isinstance(op, GateOp) and op.is_two_qubit:
            assert 0 <= op.ion_distance <= op.chain_length - 2

    result = simulate(program, device)
    assert result.duration >= 0.0
    assert 0.0 <= result.fidelity <= 1.0
    assert result.communication_time >= 0.0
    assert result.computation_time <= result.duration + 1e-9
    assert result.max_motional_energy >= 0.0
    # Splits and merges balance: every ion that leaves a chain re-enters one.
    assert program.count(OpKind.SPLIT) >= program.count(OpKind.MERGE) - 1
    counts = program.communication_summary()
    assert counts["splits"] + counts["merges"] >= 2 * program.num_shuttles - 1
