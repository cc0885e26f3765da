"""NISQ application benchmarks (paper Table II).

Six applications drive the paper's evaluation; each is generated here from
scratch with the qubit counts and communication patterns of Table II:

==============  ======  ==============  ==========================
Application     Qubits  Two-qubit gates Communication pattern
==============  ======  ==============  ==========================
Supremacy       64      560             Nearest-neighbour (2D grid)
QAOA            64      1260            Nearest-neighbour (ring/line)
SquareRoot      78      ~1028           Short and long range
QFT             64      4032            All distances
Adder           64      ~545            Short range
BV              64      63              Short and long range
==============  ======  ==============  ==========================

Every generator returns a :class:`~repro.ir.circuit.Circuit` already lowered
to single-qubit rotations plus MS-class two-qubit gates, so Table II's
"two-qubit gates" column equals ``circuit.num_two_qubit_gates``.

:data:`APPLICATION_NAMES` is a constant of this package; the generators and
the suite builders resolve on first access (PEP 562, :mod:`repro._lazy`), so
the CLI shell -- which names the applications in its parser and refuses an
unknown one before it stores or spawns anything -- loads no generator and no
circuit IR.
"""

from repro._lazy import lazy_exports

#: Canonical application names, in the order of Table II.
APPLICATION_NAMES = ("Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV")

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.qft": ("qft_circuit",),
    "repro.apps.bv": ("bernstein_vazirani_circuit",),
    "repro.apps.adder": ("cuccaro_adder_circuit",),
    "repro.apps.qaoa": ("qaoa_circuit",),
    "repro.apps.supremacy": ("supremacy_circuit",),
    "repro.apps.squareroot": ("squareroot_circuit",),
    "repro.apps.suite": ("build_application", "table2_suite", "scaled_suite",
                         "application_summary"),
})
__all__.append("APPLICATION_NAMES")
