"""Unit and integration tests for the simulation engine."""

import math

import pytest

from repro.compiler import compile_circuit
from repro.hardware import build_device
from repro.ir.circuit import Circuit
from repro.isa.operations import OpKind
from repro.models.gate_times import fm_gate_time
from repro.sim import simulate
from seed_engine import ResourceTimeline


class TestResourceTimeline:
    def test_initially_free(self):
        timeline = ResourceTimeline()
        assert timeline.available_at(["T0", "S1"]) == 0.0

    def test_occupy_and_query(self):
        timeline = ResourceTimeline()
        timeline.occupy(["T0"], 0.0, 10.0)
        assert timeline.available_at(["T0"]) == 10.0
        assert timeline.available_at(["T1"]) == 0.0
        assert timeline.busy_time("T0") == 10.0

    def test_conflicting_occupation_rejected(self):
        timeline = ResourceTimeline()
        timeline.occupy(["T0"], 0.0, 10.0)
        with pytest.raises(ValueError):
            timeline.occupy(["T0"], 5.0, 15.0)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline().occupy(["T0"], 5.0, 1.0)

    def test_utilisation(self):
        timeline = ResourceTimeline()
        timeline.occupy(["T0"], 0.0, 25.0)
        assert timeline.utilisation("T0", 100.0) == pytest.approx(0.25)
        assert timeline.utilisation("T0", 0.0) == 0.0


class TestTimingModel:
    def test_single_gate_duration(self):
        device = build_device("L2", trap_capacity=6, num_qubits=2, gate="FM")
        circuit = Circuit(2).add("cx", 0, 1)
        result = simulate(compile_circuit(circuit, device), device)
        assert result.duration == pytest.approx(fm_gate_time(2))

    def test_gates_in_one_trap_serialise(self):
        device = build_device("L2", trap_capacity=6, num_qubits=4, gate="FM")
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 2, 3)
        program = compile_circuit(circuit, device)
        result = simulate(program, device)
        # Both gates run in the same trap and must serialise.
        assert result.duration == pytest.approx(2 * fm_gate_time(4))

    def test_gates_in_different_traps_overlap(self):
        device = build_device("L2", trap_capacity=4, num_qubits=4, gate="FM")
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)  # trap T0
        circuit.add("cx", 2, 3)  # trap T1
        program = compile_circuit(circuit, device)
        result = simulate(program, device)
        assert result.duration == pytest.approx(fm_gate_time(2))

    def test_shuttle_time_components(self):
        device = build_device("L2", trap_capacity=4, num_qubits=4, gate="FM")
        # First-use order places {0,1} in T0 and {2,3} in T1; the third gate
        # spans the traps.  Qubit 1 sits at T0's tail (the port toward T1), so
        # its shuttle is a pure split + move + merge with no reordering.
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 2, 3)
        circuit.add("cx", 1, 3)
        program = compile_circuit(circuit, device)
        result = simulate(program, device)
        shuttle = device.model.shuttle
        local_gates = fm_gate_time(2)  # the first two gates run in parallel
        expected_comm = shuttle.split + shuttle.move_segment + shuttle.merge
        final_gate = fm_gate_time(3)  # destination chain has 3 ions
        assert result.duration == pytest.approx(local_gates + expected_comm + final_gate)
        assert result.communication_time == pytest.approx(expected_comm)
        assert result.computation_time == pytest.approx(local_gates + final_gate)

    def test_timeline_records_every_op(self, simulated_qft8):
        program, _, result = simulated_qft8
        assert result.timeline is not None
        assert len(result.timeline) == len(program)
        for record in result.timeline:
            assert record.finish >= record.start >= 0.0

    def test_timeline_respects_dependencies(self, simulated_qft8):
        program, _, result = simulated_qft8
        finish = {record.op_id: record.finish for record in result.timeline}
        start = {record.op_id: record.start for record in result.timeline}
        for op in program.operations:
            for dep in op.dependencies:
                assert start[op.op_id] >= finish[dep] - 1e-9

    def test_resources_never_overlap(self, simulated_qft8):
        program, _, result = simulated_qft8
        intervals = {}
        for record in result.timeline:
            for resource in program[record.op_id].resources:
                intervals.setdefault(resource, []).append((record.start, record.finish))
        for spans in intervals.values():
            spans.sort()
            for (s1, f1), (s2, _f2) in zip(spans, spans[1:]):
                assert s2 >= f1 - 1e-9

    def test_makespan_equals_last_finish(self, simulated_qft8):
        _, _, result = simulated_qft8
        assert result.duration == pytest.approx(max(r.finish for r in result.timeline))


class TestNoiseModel:
    def test_fidelity_in_unit_interval(self, simulated_qft8):
        _, _, result = simulated_qft8
        assert 0.0 <= result.fidelity <= 1.0
        assert result.log_fidelity <= 0.0

    def test_fidelity_product_matches_timeline(self, simulated_qft8):
        _, _, result = simulated_qft8
        product = 0.0
        for record in result.timeline:
            product += math.log(record.fidelity) if record.fidelity > 0 else -math.inf
        assert product == pytest.approx(result.log_fidelity, rel=1e-9)

    def test_communication_free_circuit_has_zero_motional_energy(self, bell_circuit):
        device = build_device("L2", trap_capacity=6, num_qubits=2)
        result = simulate(compile_circuit(bell_circuit, device), device)
        assert result.max_motional_energy == 0.0
        assert result.num_shuttles == 0

    def test_shuttling_heats_chains(self):
        device = build_device("L2", trap_capacity=4, num_qubits=4)
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 2, 3)
        circuit.add("cx", 1, 3)
        result = simulate(compile_circuit(circuit, device), device)
        assert result.max_motional_energy > 0.0
        assert result.final_trap_energies["T1"] > 0.0

    def test_error_breakdown_totals(self, simulated_qft8):
        _, _, result = simulated_qft8
        assert result.total_motional_error > 0.0
        assert result.total_background_error > 0.0
        assert result.mean_motional_error > result.mean_background_error

    def test_more_heating_means_less_fidelity(self, qft8):
        cold = build_device("L3", trap_capacity=6, num_qubits=8)
        hot_model = cold.model
        from dataclasses import replace
        from repro.models.params import HeatingParams
        hot = replace(cold, model=replace(hot_model, heating=HeatingParams(k1=2.0, k2=0.5)),
                      name="hot")
        program = compile_circuit(qft8, cold)
        assert simulate(program, hot).fidelity < simulate(program, cold).fidelity

    def test_peak_occupancy_within_capacity(self, simulated_qft8):
        _, device, result = simulated_qft8
        for trap, peak in result.peak_occupancy.items():
            assert peak <= device.topology.trap(trap).capacity + 1

    def test_gate_implementation_changes_results(self, compiled_qft8):
        program, device = compiled_qft8
        fm = simulate(program, device)
        am1 = simulate(program, device.with_gate("AM1"))
        assert fm.duration != am1.duration
        assert fm.fidelity != am1.fidelity

    def test_breakdown_flag(self, compiled_qft8):
        program, device = compiled_qft8
        quick = simulate(program, device, with_breakdown=False)
        assert quick.communication_time == 0.0
        full = simulate(program, device, with_breakdown=True)
        assert full.communication_time > 0.0
        assert full.duration == pytest.approx(quick.duration)
