"""QCCDSim: a design toolflow for QCCD-based trapped-ion quantum computers.

This package reproduces the system described in Murali et al.,
"Architecting Noisy Intermediate-Scale Trapped Ion Quantum Computers"
(ISCA 2020).  It contains:

* a quantum circuit IR and the NISQ benchmark suite of Table II (:mod:`repro.ir`,
  :mod:`repro.apps`);
* a hardware model of QCCD devices -- traps, segments, junctions, topologies
  (:mod:`repro.hardware`);
* performance and noise models for gates, shuttling and heating
  (:mod:`repro.models`);
* a backend compiler that maps circuits onto a QCCD device and orchestrates
  shuttling (:mod:`repro.compiler`);
* a simulator that estimates runtime, fidelity and device-level metrics
  (:mod:`repro.sim`);
* a design-space exploration toolflow regenerating the paper's figures and
  tables (:mod:`repro.toolflow`).

The package's exports (``build_device``, ``compile_circuit``, ``simulate``,
...) resolve on first access (PEP 562, :mod:`repro._lazy`): ``import repro``
loads no layer, so each process -- a dispatched worker, the exporter,
``repro info`` -- imports only the layers it runs.

Quickstart::

    from repro import build_device, compile_circuit, simulate
    from repro.apps import qft

    device = build_device("L6", trap_capacity=20, gate="FM", reorder="GS", num_qubits=64)
    circuit = qft.qft_circuit(64)
    program = compile_circuit(circuit, device)
    result = simulate(program, device)
    print(result.fidelity, result.duration)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hardware": ("build_device", "QCCDDevice"),
    "repro.compiler": ("compile_circuit",),
    "repro.sim": ("simulate", "SimulationResult"),
    "repro.toolflow": ("ArchitectureConfig", "run_experiment"),
})
__all__.append("__version__")
