"""QCCDDevice: a complete candidate architecture.

This is the object the compiler and simulator target.  It bundles the
communication topology, the per-trap capacity, the microarchitectural choices
(two-qubit gate implementation and chain-reordering method) and the physical
model parameters (Section V of the paper: "a QCCD architecture's parameters").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.hardware.topology import Topology
from repro.models.gate_times import GateImplementation
from repro.models.params import PhysicalModel


class ReorderMethod(enum.Enum):
    """Chain-reordering microarchitecture (Section IV.C, Figure 5).

    * ``GS`` -- gate-based swapping: a SWAP gate (three MS gates) exchanges the
      quantum states of two ions, so the physical chain order never changes.
    * ``IS`` -- ion swapping: adjacent ions are physically exchanged, one hop
      at a time, each hop costing a split, a 180-degree rotation and a merge.
    """

    GS = "GS"
    IS = "IS"

    @classmethod
    def from_name(cls, name) -> "ReorderMethod":
        """Parse ``name`` (enum member or case-insensitive string)."""

        if isinstance(name, cls):
            return name
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise ValueError(f"unknown reorder method {name!r}; expected GS or IS")


@dataclass
class QCCDDevice:
    """A candidate QCCD architecture.

    Attributes
    ----------
    topology:
        The trap/segment/junction connectivity graph.
    gate:
        Two-qubit gate implementation (AM1, AM2, PM or FM).
    reorder:
        Chain reordering method (GS or IS).
    model:
        Physical performance and noise model parameters.
    num_qubits:
        Number of ions loaded into the device, i.e. the number of program
        qubits the device can host.  Defaults to the device's usable capacity.
    buffer_ions:
        Slots left free per trap for incoming shuttles when mapping
        (Section VI uses 2).
    name:
        Human-readable configuration name used in reports.
    """

    topology: Topology
    gate: GateImplementation = GateImplementation.FM
    reorder: ReorderMethod = ReorderMethod.GS
    model: PhysicalModel = field(default_factory=PhysicalModel)
    num_qubits: Optional[int] = None
    buffer_ions: int = 2
    name: str = ""

    def __post_init__(self) -> None:
        self.gate = GateImplementation.from_name(self.gate)
        self.reorder = ReorderMethod.from_name(self.reorder)
        self.model.validate()
        self.topology.validate()
        if self.buffer_ions < 0:
            raise ValueError("buffer_ions must be non-negative")
        usable = self.usable_capacity()
        if usable <= 0:
            raise ValueError(
                "device has no usable capacity once shuttle buffer slots are reserved"
            )
        if self.num_qubits is None:
            self.num_qubits = usable
        if self.num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if self.num_qubits > usable:
            raise ValueError(
                f"cannot load {self.num_qubits} ions: usable capacity is {usable} "
                f"({self.topology.num_traps} traps, buffer of {self.buffer_ions} per trap)"
            )
        if not self.name:
            capacity = max(t.capacity for t in self.topology.traps)
            self.name = (f"{self.topology.name}-cap{capacity}-"
                         f"{self.gate.value}-{self.reorder.value}")

    # ------------------------------------------------------------------ #
    def usable_capacity(self) -> int:
        """Ions the mapper may place initially (capacity minus buffer slots)."""

        return sum(trap.usable_capacity(self.buffer_ions) for trap in self.topology.traps)

    @property
    def trap_capacity(self) -> int:
        """Capacity of the (largest) trap; the paper uses uniform capacities."""

        return max(trap.capacity for trap in self.topology.traps)

    def with_gate(self, gate) -> "QCCDDevice":
        """Copy of this device with a different two-qubit gate implementation."""

        return replace(self, gate=GateImplementation.from_name(gate), name="")

    def describe(self) -> str:
        """One-paragraph description used by reports and examples."""

        topo = self.topology
        return (
            f"QCCD device '{self.name}': {topo.num_traps} traps "
            f"(capacity {self.trap_capacity} ions each), "
            f"{len(topo.segments)} segments, {len(topo.junctions)} junctions, "
            f"{self.num_qubits} ions loaded, two-qubit gate {self.gate.value}, "
            f"chain reordering {self.reorder.value}."
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"QCCDDevice({self.name!r})"
