"""QCCD instruction set: the primitive operations a compiled program contains.

The compiler lowers a circuit to a sequence of these primitives (the paper's
"executable with primitive QCCD instructions", Section V.A), stored as op
records (:mod:`repro.isa.records`); the simulator assigns each a duration,
a set of exclusive hardware resources, a heating effect and a fidelity
contribution.  Names resolve on first access, so a process that never asks
for :class:`Operation` objects never loads :mod:`repro.isa.operations`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.isa.operations": ("Operation", "GateOp", "SwapGateOp", "MeasureOp",
                             "SplitOp", "MoveOp", "JunctionCrossOp", "MergeOp",
                             "IonSwapOp"),
    "repro.isa.records": ("OpKind",),
    "repro.isa.program": ("QCCDProgram", "InitialPlacement"),
})
