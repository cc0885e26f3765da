"""Unit tests for QCCDDevice and the device builders."""

import pytest

from repro.hardware.builders import build_device, make_topology
from repro.hardware.device import QCCDDevice, ReorderMethod
from repro.models.gate_times import GateImplementation
from repro.models.params import PhysicalModel, ShuttleTimes


class TestBuilders:
    def test_l6_name_parsing(self):
        device = build_device("L6", trap_capacity=20)
        assert device.topology.num_traps == 6
        assert device.topology.name == "L6"

    def test_grid_name_parsing(self):
        device = build_device("G2x3", trap_capacity=20)
        assert device.topology.num_traps == 6
        assert len(device.topology.junctions) == 3

    def test_ring_name_parsing(self):
        device = build_device("R5", trap_capacity=10)
        assert device.topology.num_traps == 5

    def test_case_insensitive_names(self):
        assert make_topology("g2X2", 10).num_traps == 4

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_device("hexagon", trap_capacity=10)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            make_topology("G1x1", 10)


class TestDeviceConstruction:
    def test_defaults(self):
        device = build_device("L6", trap_capacity=20)
        assert device.gate is GateImplementation.FM
        assert device.reorder is ReorderMethod.GS
        assert device.buffer_ions == 2
        # default loading: usable capacity
        assert device.num_qubits == 6 * 18

    def test_explicit_num_qubits(self):
        device = build_device("L6", trap_capacity=20, num_qubits=64)
        assert device.num_qubits == 64

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError):
            build_device("L2", trap_capacity=10, num_qubits=30)

    def test_buffer_reduces_usable_capacity(self):
        device = build_device("L2", trap_capacity=10, buffer_ions=4)
        assert device.usable_capacity() == 12
        assert sum(trap.capacity for trap in device.topology.traps) == 20

    def test_zero_usable_capacity_rejected(self):
        with pytest.raises(ValueError):
            build_device("L2", trap_capacity=3, buffer_ions=3)

    def test_string_knobs_parsed(self):
        device = build_device("L3", trap_capacity=10, gate="am2", reorder="is")
        assert device.gate is GateImplementation.AM2
        assert device.reorder is ReorderMethod.IS

    def test_invalid_gate_rejected(self):
        with pytest.raises(ValueError):
            build_device("L3", trap_capacity=10, gate="ZZ")

    def test_invalid_reorder_rejected(self):
        with pytest.raises(ValueError):
            ReorderMethod.from_name("swap")

    def test_custom_model(self):
        model = PhysicalModel(shuttle=ShuttleTimes(split=50.0))
        device = build_device("L3", trap_capacity=10, model=model)
        assert device.model.shuttle.split == 50.0

    def test_name_autogenerated(self):
        device = build_device("L6", trap_capacity=20, gate="PM", reorder="IS")
        assert "L6" in device.name
        assert "PM" in device.name
        assert "IS" in device.name


class TestDeviceHelpers:
    def test_with_gate_copies(self):
        device = build_device("L3", trap_capacity=10, gate="FM")
        other = device.with_gate("AM1")
        assert other.gate is GateImplementation.AM1
        assert device.gate is GateImplementation.FM
        assert other.topology is device.topology

    def test_trap_capacities(self):
        device = build_device("L3", trap_capacity=12)
        assert {trap.name: trap.capacity for trap in device.topology.traps} \
            == {"T0": 12, "T1": 12, "T2": 12}
        assert device.trap_capacity == 12

    def test_describe_mentions_key_facts(self):
        device = build_device("G2x3", trap_capacity=15, num_qubits=60)
        description = device.describe()
        assert "6 traps" in description
        assert "FM" in description
        assert "60 ions" in description
