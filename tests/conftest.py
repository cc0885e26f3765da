"""Shared pytest fixtures.

Fixtures build small, fast device/circuit instances; full-scale (64-78 qubit)
circuits are compiled only by the opt-in paper-scale tests and by
``perfbench/``.
"""

from __future__ import annotations

import timeit

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full paper-scale checks (opt-in via REPRO_GOLDEN_SCALE)")

from repro.apps import (
    bernstein_vazirani_circuit,
    cuccaro_adder_circuit,
    qaoa_circuit,
    qft_circuit,
    scaled_suite,
    supremacy_circuit,
)
from repro.compiler import compile_circuit
from repro.hardware import build_device
from repro.ir.circuit import Circuit
from repro.sim import simulate
from repro.toolflow import ArchitectureConfig, ProgramCache, sweep_microarchitecture


@pytest.fixture
def small_linear_device():
    """A 3-trap linear device with 6-ion traps (8 usable qubits)."""

    return build_device("L3", trap_capacity=6, gate="FM", reorder="GS", num_qubits=8)


@pytest.fixture
def small_grid_device():
    """A 2x2 grid device with 6-ion traps."""

    return build_device("G2x2", trap_capacity=6, gate="FM", reorder="GS", num_qubits=8)


@pytest.fixture
def l6_device():
    """A paper-style L6 device with 16-ion traps."""

    return build_device("L6", trap_capacity=16, gate="FM", reorder="GS")


@pytest.fixture
def tiny_circuit():
    """A 4-qubit circuit with local and non-local two-qubit gates."""

    circuit = Circuit(4, name="tiny")
    circuit.add("h", 0)
    circuit.add("cx", 0, 1)
    circuit.add("cx", 1, 2)
    circuit.add("cx", 2, 3)
    circuit.add("cx", 0, 3)
    return circuit


@pytest.fixture
def bell_circuit():
    """The smallest entangling circuit."""

    circuit = Circuit(2, name="bell")
    circuit.add("h", 0)
    circuit.add("cx", 0, 1)
    return circuit


@pytest.fixture
def qft8():
    """An 8-qubit QFT (56 two-qubit gates, all-to-all pattern)."""

    return qft_circuit(8)


@pytest.fixture
def qaoa8():
    """An 8-qubit, 3-layer QAOA ansatz."""

    return qaoa_circuit(8, layers=3)


@pytest.fixture
def bv8():
    """An 8-qubit Bernstein-Vazirani circuit."""

    return bernstein_vazirani_circuit(8)


@pytest.fixture
def adder8():
    """An 8-qubit (3+3 bit) Cuccaro adder."""

    return cuccaro_adder_circuit(8)


@pytest.fixture
def supremacy9():
    """A 9-qubit (3x3), 4-cycle random circuit."""

    return supremacy_circuit(9, cycles=4)


@pytest.fixture
def small_suite(qft8, qaoa8, bv8, adder8, supremacy9):
    """A miniature application suite keyed like the Table II suite."""

    return {
        "QFT": qft8,
        "QAOA": qaoa8,
        "BV": bv8,
        "Adder": adder8,
        "Supremacy": supremacy9,
    }


@pytest.fixture
def compiled_qft8(qft8):
    """(program, device) for an 8-qubit QFT on a small linear device."""

    device = build_device("L3", trap_capacity=6, gate="FM", reorder="GS",
                          num_qubits=qft8.num_qubits)
    program = compile_circuit(qft8, device)
    return program, device


@pytest.fixture
def simulated_qft8(compiled_qft8):
    """(program, device, result) for the compiled 8-qubit QFT."""

    program, device = compiled_qft8
    return program, device, simulate(program, device, keep_timeline=True)


@pytest.fixture
def small_config():
    """A small architecture config usable with the 8-qubit fixtures."""

    return ArchitectureConfig(topology="L3", trap_capacity=6)


@pytest.fixture
def dse_run_output(tmp_path, capsys):
    """``dse run`` over an 8-point 8-qubit space, each call on a fresh store.

    ``dse_run_output(*flags, jobs=N)`` returns the ``--output`` JSON bytes
    and the printed summary, less the lines naming the store or a ledger
    worker, so a ``--jobs N`` run compares to a serial one.  A ``--jobs``
    run must leave only the store's rows behind.
    """

    from repro.cli import main

    runs = []

    def run(*flags, jobs):
        store = tmp_path / f"store{len(runs)}"
        output = tmp_path / f"output{len(runs)}.json"
        runs.append(store)
        assert main(["dse", "run", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--seed", "5", *flags,
                     "--jobs", str(jobs), "--store", str(store),
                     "--output", str(output)]) == 0
        summary = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith(("worker ", "Store", "Wrote"))]
        assert [name for name in ("dispatch.json", "leases", "telemetry")
                if (store / name).exists()] == []
        return output.read_bytes(), summary

    return run


@pytest.fixture(scope="session")
def small_sweep():
    """The 96-point sweep the disabled-path cost bounds are relative to.

    ``sweep_microarchitecture`` over ``scaled_suite(16)`` (L4, capacities 6
    and 8, four gates, GS and IS), each pass on a fresh program cache,
    untraced and with ``--check`` off (tier-1's defaults).  Returns
    ``(run, points, wall_s)``: the sweep as a callable, its point count,
    and the best of three timed passes after a warm-up.  Session-scoped, so
    the tracing and the check bounds share one measurement.
    """

    suite = scaled_suite(16)
    base = ArchitectureConfig(topology="L4")

    def run():
        return sweep_microarchitecture(suite, capacities=(6, 8),
                                       gates=("AM1", "AM2", "PM", "FM"),
                                       reorders=("GS", "IS"), base=base,
                                       cache=ProgramCache())

    points = len(run())
    return run, points, min(timeit.repeat(run, number=1, repeat=3))
