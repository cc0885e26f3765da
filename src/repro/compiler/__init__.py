"""Backend compiler for QCCD-based trapped-ion devices (paper Sections V.A, VI).

The compiler takes a fully unrolled circuit IR and a candidate
:class:`~repro.hardware.device.QCCDDevice` and produces a
:class:`~repro.isa.program.QCCDProgram`:

1. **Mapping** (:mod:`~repro.compiler.mapping`): program qubits are placed
   onto traps with the paper's greedy heuristic, which orders qubits by
   first use and leaves buffer slots for incoming shuttles.
2. **Scheduling** (:mod:`~repro.compiler.scheduler`): gates are processed in
   earliest-ready-gate-first order, preferring gates that are already local.
3. **Routing** (:mod:`~repro.compiler.routing`,
   :mod:`~repro.compiler.shuttle`): two-qubit gates between traps trigger a
   shuttle along the shortest path, with split/move/junction/merge primitives
   and pass-through handling for linear topologies.
4. **Chain reordering** (:mod:`~repro.compiler.reorder`): ions are brought to
   the correct chain end before splits, using gate-based swapping (GS) or
   physical ion swapping (IS).

:func:`compile_circuit` is the public entry point.  It has one
configuration: it always lowers SWAPs to the native set, maps greedily,
routes by interaction affinity and validates the result; what varies
between design points is the device (topology, trap capacity, gate
implementation, reordering), as in the paper's Figures 6-8.
"""

from repro.compiler.compile import compile_circuit
from repro.compiler.placement_state import PlacementState, TrapChain
from repro.compiler.mapping import greedy_mapping

__all__ = [
    "compile_circuit",
    "PlacementState",
    "TrapChain",
    "greedy_mapping",
]
