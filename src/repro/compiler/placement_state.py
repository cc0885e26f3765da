"""Placement state: where every ion and program qubit is during compilation.

The compiler maintains a mutable view of the machine: the ordered ion chain of
every trap, which trap (or transit) every ion is in, and the binding between
program qubits and physical ions.  Gate-based swapping changes the binding
(states move between ions); ion swapping and shuttling change the physical
arrangement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hardware.device import QCCDDevice
from repro.isa.program import InitialPlacement


class TrapChain:
    """The ordered ion chain of one trap (index 0 = head, last = tail)."""

    def __init__(self, trap_name: str, capacity: int, ions: Optional[List[int]] = None) -> None:
        self.trap_name = trap_name
        self.capacity = capacity
        self._ions: List[int] = list(ions or [])
        if len(self._ions) > capacity:
            raise ValueError(f"chain of {len(self._ions)} ions exceeds capacity {capacity}")
        if len(set(self._ions)) != len(self._ions):
            raise ValueError("duplicate ion in chain")

    # ------------------------------------------------------------------ #
    @property
    def ions(self) -> Tuple[int, ...]:
        """Chain contents, head to tail."""

        return tuple(self._ions)

    def __len__(self) -> int:
        return len(self._ions)

    def __contains__(self, ion: int) -> bool:
        return ion in self._ions

    @property
    def free_space(self) -> int:
        """Number of additional ions the trap can accept."""

        return self.capacity - len(self._ions)

    def index_of(self, ion: int) -> int:
        """Position of ``ion`` in the chain (0 = head)."""

        try:
            return self._ions.index(ion)
        except ValueError:
            raise KeyError(f"ion {ion} not in trap {self.trap_name}") from None

    def end_index(self, side: str) -> int:
        """Chain index of the ``"head"`` or ``"tail"`` end."""

        if side == "head":
            return 0
        if side == "tail":
            return len(self._ions) - 1
        raise ValueError("side must be 'head' or 'tail'")

    def ion_at_end(self, side: str) -> int:
        """The ion currently sitting at the given end."""

        if not self._ions:
            raise ValueError(f"trap {self.trap_name} is empty")
        return self._ions[self.end_index(side)]

    # ------------------------------------------------------------------ #
    def insert(self, ion: int, side: str, allow_overfill: bool = False) -> None:
        """Merge ``ion`` into the chain at one end.

        ``allow_overfill`` permits a transient one-ion overshoot, used only
        when an ion passes *through* an intermediate trap of a linear
        topology: it merges, is reordered to the far end and immediately
        splits back out (Figure 4).
        """

        if ion in self._ions:
            raise ValueError(f"ion {ion} already in trap {self.trap_name}")
        limit = self.capacity + 1 if allow_overfill else self.capacity
        if len(self._ions) + 1 > limit:
            raise ValueError(f"trap {self.trap_name} over capacity")
        if side == "head":
            self._ions.insert(0, ion)
        elif side == "tail":
            self._ions.append(ion)
        else:
            raise ValueError("side must be 'head' or 'tail'")

    def remove(self, ion: int) -> int:
        """Split ``ion`` out of the chain; returns its former index."""

        index = self.index_of(ion)
        self._ions.pop(index)
        return index

    def hop(self, position: int, step: int) -> int:
        """One IS hop: physically exchange the ion at index ``position`` with
        its neighbour at ``position + step`` (``step`` is 1 or -1); returns
        the neighbour."""

        ions = self._ions
        other = position + step
        size = len(ions)
        if step not in (1, -1) or not (0 <= position < size and 0 <= other < size):
            raise ValueError("ion swap requires adjacent ions")
        neighbour = ions[other]
        ions[other] = ions[position]
        ions[position] = neighbour
        return neighbour

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TrapChain({self.trap_name}, {self._ions})"


class PlacementState:
    """Mutable machine state used while compiling one circuit."""

    def __init__(self, device: QCCDDevice) -> None:
        self.device = device
        self.chains: Dict[str, TrapChain] = {
            trap.name: TrapChain(trap.name, trap.capacity)
            for trap in device.topology.traps
        }
        self._ion_trap: Dict[int, Optional[str]] = {}
        self._qubit_of_ion: Dict[int, Optional[int]] = {}
        self._ion_of_qubit: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Loading / bookkeeping
    # ------------------------------------------------------------------ #
    def load_ion(self, ion: int, trap_name: str, qubit: Optional[int] = None,
                 side: str = "tail") -> None:
        """Place a new ion into a trap (initial loading only)."""

        if ion in self._ion_trap:
            raise ValueError(f"ion {ion} already loaded")
        chain = self.chains[trap_name]
        if chain.free_space <= 0:
            raise ValueError(f"trap {trap_name} is full")
        chain.insert(ion, side)
        self._ion_trap[ion] = trap_name
        self._qubit_of_ion[ion] = qubit
        if qubit is not None:
            self._ion_of_qubit[qubit] = ion

    @property
    def ions(self) -> Tuple[int, ...]:
        """All loaded ion ids."""

        return tuple(sorted(self._ion_trap))

    def trap_of_ion(self, ion: int) -> Optional[str]:
        """Trap currently holding ``ion`` (``None`` while in transit)."""

        return self._ion_trap[ion]

    def trap_of_qubit(self, qubit: int) -> Optional[str]:
        """Trap currently holding program qubit ``qubit``."""

        # Hot path (the scheduler's locality probe): inline both lookups.
        try:
            return self._ion_trap[self._ion_of_qubit[qubit]]
        except KeyError:
            raise KeyError(f"program qubit {qubit} is not mapped to any ion") from None

    def ion_of_qubit(self, qubit: int) -> int:
        """Physical ion currently holding program qubit ``qubit``."""

        try:
            return self._ion_of_qubit[qubit]
        except KeyError:
            raise KeyError(f"program qubit {qubit} is not mapped to any ion") from None

    def qubit_of_ion(self, ion: int) -> Optional[int]:
        """Program qubit held by ``ion`` (``None`` for spare ions)."""

        return self._qubit_of_ion.get(ion)

    def tables(self) -> Tuple[Dict[int, int], Dict[int, Optional[str]],
                              Dict[str, List[int]]]:
        """The live lookup tables ``(ion of each qubit, trap of each ion,
        ion list of each trap's chain)``, for the compile loop's per-gate
        reads.  Read only: the mutators below, and :meth:`TrapChain.hop` for
        an ion swap (which moves no ion between traps), make every change."""

        return (self._ion_of_qubit, self._ion_trap,
                {name: chain._ions for name, chain in self.chains.items()})

    def chain(self, trap_name: str) -> TrapChain:
        """The chain of ``trap_name``."""

        return self.chains[trap_name]

    def free_space(self, trap_name: str) -> int:
        """Free slots in ``trap_name``."""

        return self.chains[trap_name].free_space

    def occupancy(self) -> Dict[str, int]:
        """Current ions per trap."""

        return {name: len(chain) for name, chain in self.chains.items()}

    # ------------------------------------------------------------------ #
    # Mutations mirroring the primitive operations
    # ------------------------------------------------------------------ #
    def split(self, trap_name: str, ion: int) -> None:
        """Remove ``ion`` from its trap; it is now in transit."""

        chain = self.chains[trap_name]
        chain.remove(ion)
        self._ion_trap[ion] = None

    def merge(self, trap_name: str, ion: int, side: str,
              allow_overfill: bool = False) -> None:
        """Insert a travelling ``ion`` into ``trap_name`` at ``side``."""

        if self._ion_trap.get(ion) is not None:
            raise ValueError(f"ion {ion} is not in transit")
        self.chains[trap_name].insert(ion, side, allow_overfill=allow_overfill)
        self._ion_trap[ion] = trap_name

    def swap_states(self, ion_a: int, ion_b: int) -> None:
        """Gate-based swap: exchange the program qubits held by two ions."""

        qubit_a = self._qubit_of_ion.get(ion_a)
        qubit_b = self._qubit_of_ion.get(ion_b)
        self._qubit_of_ion[ion_a] = qubit_b
        self._qubit_of_ion[ion_b] = qubit_a
        if qubit_a is not None:
            self._ion_of_qubit[qubit_a] = ion_b
        if qubit_b is not None:
            self._ion_of_qubit[qubit_b] = ion_a

    # ------------------------------------------------------------------ #
    def snapshot_placement(self) -> InitialPlacement:
        """Freeze the current state as an :class:`InitialPlacement`."""

        return InitialPlacement(
            qubit_to_ion=dict(self._ion_of_qubit),
            ion_to_trap={ion: trap for ion, trap in self._ion_trap.items() if trap is not None},
            trap_chains={name: chain.ions for name, chain in self.chains.items()},
        )

    def validate(self) -> None:
        """Internal consistency checks (used heavily by tests).

        * every loaded ion is either in exactly one chain or in transit;
        * qubit->ion and ion->qubit maps are mutually consistent;
        * no chain exceeds its capacity.
        """

        seen: Dict[int, str] = {}
        for name, chain in self.chains.items():
            if len(chain) > chain.capacity:
                raise AssertionError(f"trap {name} over capacity")
            for ion in chain.ions:
                if ion in seen:
                    raise AssertionError(f"ion {ion} in two chains")
                seen[ion] = name
        for ion, trap in self._ion_trap.items():
            if trap is None:
                if ion in seen:
                    raise AssertionError(f"ion {ion} marked in transit but found in {seen[ion]}")
            elif seen.get(ion) != trap:
                raise AssertionError(f"ion {ion} bookkeeping mismatch")
        for qubit, ion in self._ion_of_qubit.items():
            if self._qubit_of_ion.get(ion) != qubit:
                raise AssertionError(f"qubit {qubit} / ion {ion} binding mismatch")
