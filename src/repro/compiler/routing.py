"""Routing decisions: who moves where for a two-qubit gate across traps.

When a two-qubit gate's operands sit in different traps, the compiler must
pick which operand to shuttle and, if the receiving trap is full, which
resident ion to evict (and to which trap).  The decisions are deliberately
simple, deterministic greedy heuristics in the spirit of Section VI:

* **Destination choice**: shuttle the operand whose interaction affinity pulls
  it toward the other trap -- the qubit that will mostly talk to qubits in the
  destination anyway should be the one that moves, which keeps future gates
  local and avoids ping-ponging ions back and forth.  Ties fall back to the
  trap with more free space; a full trap can never be the destination unless
  an eviction frees a slot first.
* **Eviction victim**: the resident qubit whose next use lies farthest in the
  future (never-used-again qubits are ideal victims), excluding the gate's own
  operands.
* **Eviction destination**: the nearest trap (by shuttle distance) with free
  space, excluding the two gate traps.

Performance: the compile loop asks the router only about gates whose
operands sit in different traps.  The router keeps an incremental affinity
table -- per trap, one list indexed by qubit of the total interaction weight
with that trap's current residents -- instead of rescanning the destination
chain for every cross-trap gate.  The table is seeded from the initial
placement and updated whenever the compile loop reports a shuttle via
:meth:`Router.note_qubit_moved`: one list update per interaction-graph
neighbour of the moved qubit.  That adjacency is the circuit's
(:attr:`CircuitFrontEnd.neighbours <repro.ir.dag.CircuitFrontEnd>`), built
once per circuit however many devices it is compiled for.  Eviction
destinations come from a static per-origin trap list presorted by (shuttle
distance, name), so the nearest trap with free space is found by an
early-exit walk instead of a full scan of every trap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.placement_state import PlacementState
from repro.hardware.device import QCCDDevice

#: Returns the next gate index at which ``qubit`` is used, or ``None``.
NextUseFn = Callable[[int], Optional[int]]

#: Per program qubit, its ``(neighbour, interaction count)`` pairs
#: (:func:`repro.ir.dag.interaction_adjacency`).
Adjacency = Sequence[Sequence[Tuple[int, int]]]


@dataclass(frozen=True)
class ShuttleRequest:
    """One planned shuttle: bring ``qubit`` into trap ``destination``."""

    qubit: int
    destination: str


@dataclass(frozen=True)
class CommunicationPlan:
    """Shuttles needed before a cross-trap two-qubit gate can execute.

    ``evictions`` must be performed before ``primary`` (they free the space
    the primary shuttle merges into).  ``gate_trap`` is where the gate will
    run once every shuttle has completed.
    """

    gate_trap: str
    primary: ShuttleRequest
    evictions: Tuple[ShuttleRequest, ...] = field(default=())

    @property
    def all_shuttles(self) -> Tuple[ShuttleRequest, ...]:
        """Evictions first, then the primary shuttle."""

        return self.evictions + (self.primary,)


class Router:
    """Greedy communication planner over a live placement state."""

    def __init__(self, state: PlacementState, device: QCCDDevice,
                 next_use: Optional[NextUseFn] = None,
                 neighbours: Optional[Adjacency] = None) -> None:
        self.state = state
        self.device = device
        self.next_use = next_use or (lambda qubit: None)
        # Trap-to-trap distances are static; cache them once.
        self._distances = device.topology.distance_matrix()
        # Static eviction-destination order: per origin, every trap presorted
        # by (distance, name) so the nearest trap with space is an early-exit
        # walk rather than a scan over every trap.
        trap_names = [trap.name for trap in device.topology.traps]
        self._traps_by_distance: Dict[str, Tuple[str, ...]] = {
            origin: tuple(name for _, name in sorted(
                (self._distances[(origin, name)], name) for name in trap_names
            ))
            for origin in trap_names
        }
        # Without an adjacency no qubit interacts; program qubits are
        # numbered below the device's ion count.
        self._neighbours = neighbours or ((),) * device.num_qubits
        # Incremental affinity table: per trap, per qubit, the total
        # interaction weight with the qubits currently resident in that trap.
        # Seeded from the live placement.
        self._affinity_table: Dict[str, List[int]] = {
            trap_name: [0] * len(self._neighbours) for trap_name in state.chains}
        for trap_name, chain in state.chains.items():
            for ion in chain.ions:
                resident = state.qubit_of_ion(ion)
                if resident is None:
                    continue
                self._credit_residency(resident, trap_name, +1)

    # ------------------------------------------------------------------ #
    def _credit_residency(self, qubit: int, trap_name: str, sign: int) -> None:
        """Add (or remove) ``qubit``'s weights to its neighbours' affinity
        for ``trap_name``."""

        row = self._affinity_table[trap_name]
        for neighbour, weight in self._neighbours[qubit]:
            row[neighbour] += sign * weight

    def note_qubit_moved(self, qubit: int, source: Optional[str], destination: str) -> None:
        """Update the affinity table after ``qubit`` shuttled between traps.

        The compile loop calls this once per executed shuttle.  Only the
        qubit's interaction-graph neighbours are touched; the moved qubit's
        own affinities are unchanged (they sum over *other* residents).
        """

        if source == destination:
            return
        if source is not None:
            self._credit_residency(qubit, source, -1)
        self._credit_residency(qubit, destination, +1)

    def _affinity(self, qubit: int, trap_name: str) -> int:
        """Total interaction count between ``qubit`` and the residents of a trap."""

        return self._affinity_table[trap_name][qubit]

    def _move_gain(self, qubit: int, source: str, destination: str) -> int:
        """How much moving ``qubit`` improves its locality (higher is better)."""

        return self._affinity(qubit, destination) - self._affinity(qubit, source)

    def plan_two_qubit_gate(self, qubit_a: int, qubit_b: int) -> Optional[CommunicationPlan]:
        """Plan the shuttles needed to co-locate ``qubit_a`` and ``qubit_b``.

        Returns ``None`` when the qubits already share a trap.
        """

        trap_a = self.state.trap_of_qubit(qubit_a)
        trap_b = self.state.trap_of_qubit(qubit_b)
        if trap_a is None or trap_b is None:
            raise ValueError("both qubits must be resident in traps")
        if trap_a == trap_b:
            return None

        free_a = self.state.free_space(trap_a)
        free_b = self.state.free_space(trap_b)

        if free_a > 0 or free_b > 0:
            move_a_to_b = self._prefer_moving_first(qubit_a, qubit_b, trap_a, trap_b,
                                                    free_a, free_b)
            if move_a_to_b:
                return CommunicationPlan(gate_trap=trap_b,
                                         primary=ShuttleRequest(qubit_a, trap_b))
            return CommunicationPlan(gate_trap=trap_a,
                                     primary=ShuttleRequest(qubit_b, trap_a))

        # Both traps full: free a slot in trap_b, then move qubit_a there.
        eviction = self._plan_eviction(trap_b, protected=(qubit_a, qubit_b))
        return CommunicationPlan(gate_trap=trap_b,
                                 primary=ShuttleRequest(qubit_a, trap_b),
                                 evictions=(eviction,))

    def _prefer_moving_first(self, qubit_a: int, qubit_b: int, trap_a: str, trap_b: str,
                             free_a: int, free_b: int) -> bool:
        """Whether the first operand should be the one that moves.

        At least one trap is known to have space; a trap without space can
        never be chosen as the destination.
        """

        if free_b <= 0:
            return False
        if free_a <= 0:
            return True
        gain_a = self._move_gain(qubit_a, trap_a, trap_b)
        gain_b = self._move_gain(qubit_b, trap_b, trap_a)
        if gain_a != gain_b:
            return gain_a > gain_b
        return free_b >= free_a

    # ------------------------------------------------------------------ #
    def _plan_eviction(self, trap_name: str, protected: Tuple[int, ...]) -> ShuttleRequest:
        """Pick a victim qubit in ``trap_name`` and a trap to send it to."""

        victim = self._choose_victim(trap_name, protected)
        destination = self._nearest_trap_with_space(trap_name, exclude=(trap_name,))
        if destination is None:
            raise RuntimeError(
                "no trap in the device has free space; the device is loaded beyond "
                "its usable capacity"
            )
        return ShuttleRequest(victim, destination)

    def _choose_victim(self, trap_name: str, protected: Tuple[int, ...]) -> int:
        """The resident qubit whose next use is farthest in the future."""

        candidates: List[Tuple[float, int]] = []
        for ion in self.state.chain(trap_name).ions:
            qubit = self.state.qubit_of_ion(ion)
            if qubit is None or qubit in protected:
                continue
            upcoming = self.next_use(qubit)
            score = float("inf") if upcoming is None else float(upcoming)
            candidates.append((score, qubit))
        if not candidates:
            raise RuntimeError(f"trap {trap_name} has no evictable qubit")
        # Farthest next use wins; ties broken by qubit index for determinism.
        candidates.sort(key=lambda item: (-item[0], item[1]))
        return candidates[0][1]

    def _nearest_trap_with_space(self, origin: str,
                                 exclude: Tuple[str, ...]) -> Optional[str]:
        """Closest trap (by shuttle distance) with at least one free slot."""

        free_space = self.state.free_space
        for trap_name in self._traps_by_distance[origin]:
            if trap_name in exclude:
                continue
            if free_space(trap_name) > 0:
                return trap_name
        return None
