"""ArchitectureConfig: a declarative description of one candidate QCCD design.

The config captures exactly the knobs the paper sweeps -- topology, trap
capacity, two-qubit gate implementation and chain reordering method -- plus
the physical model parameters.  ``build_device`` turns it into a concrete
:class:`~repro.hardware.device.QCCDDevice` sized for a given application;
only then is the hardware layer imported, so a process that only describes
designs -- the dispatcher writing a manifest -- never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.models.params import PhysicalModel

if TYPE_CHECKING:  # the hardware layer loads only to build a device
    from repro.hardware.device import QCCDDevice


@dataclass(frozen=True)
class ArchitectureConfig:
    """One point of the QCCD design space.

    Attributes
    ----------
    topology:
        Topology name (``"L6"``, ``"G2x3"``, ``"R8"``, ...).
    trap_capacity:
        Maximum ions per trap (the paper sweeps 14-34).
    gate:
        Two-qubit gate implementation: ``"AM1"``, ``"AM2"``, ``"PM"``, ``"FM"``.
    reorder:
        Chain reordering method: ``"GS"`` or ``"IS"``.
    buffer_ions:
        Free slots per trap reserved for incoming shuttles during the initial
        mapping.  If an application does not fit with the requested buffer,
        :meth:`build_device` shrinks the buffer just enough to fit (the paper
        evaluates 78-qubit SquareRoot on 6x14-ion devices, which requires
        relaxing the 2-slot buffer).
    model:
        Physical model parameters (defaults to the paper's values).
    """

    topology: str = "L6"
    trap_capacity: int = 20
    gate: str = "FM"
    reorder: str = "GS"
    buffer_ions: int = 2
    model: PhysicalModel = field(default_factory=PhysicalModel)

    def __post_init__(self) -> None:
        if self.trap_capacity < 2:
            raise ValueError("trap_capacity must be at least 2")
        if self.buffer_ions < 0:
            raise ValueError("buffer_ions must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Short configuration label used in reports."""

        return f"{self.topology}-cap{self.trap_capacity}-{self.gate}-{self.reorder}"

    def num_traps(self) -> int:
        """Number of traps implied by the topology name."""

        from repro.hardware.builders import make_topology

        return make_topology(self.topology, self.trap_capacity).num_traps

    def max_buffer_for(self, num_qubits: int) -> int:
        """Largest per-trap buffer (<= requested) that still fits ``num_qubits``."""

        traps = self.num_traps()
        for buffer_ions in range(self.buffer_ions, -1, -1):
            usable = traps * max(0, self.trap_capacity - buffer_ions)
            if usable >= num_qubits:
                return buffer_ions
        raise ValueError(
            f"{num_qubits} qubits do not fit a {self.topology} device with "
            f"{self.trap_capacity}-ion traps even without buffer slots"
        )

    def build_device(self, num_qubits: Optional[int] = None) -> QCCDDevice:
        """Instantiate the device, sized for ``num_qubits`` program qubits."""

        from repro.hardware.builders import build_device

        buffer_ions = self.buffer_ions
        if num_qubits is not None:
            buffer_ions = self.max_buffer_for(num_qubits)
        return build_device(
            self.topology,
            trap_capacity=self.trap_capacity,
            gate=self.gate,
            reorder=self.reorder,
            num_qubits=num_qubits,
            buffer_ions=buffer_ions,
            model=self.model,
        )

    def with_updates(self, **changes) -> "ArchitectureConfig":
        """Return a copy with some fields replaced."""

        return replace(self, **changes)
