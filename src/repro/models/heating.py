"""Motional heating model (paper Section VII.B).

Each ion chain is modelled as a quantum oscillator whose motional energy is
tracked in units of quanta.  The accounting rules, copied from the paper:

* Every chain starts in the zero-energy state.
* **Split**: the chain's energy is divided between the two sub-chains in
  proportion to their ion counts (energy is conserved), then *each* sub-chain
  gains ``k1`` quanta.
* **Merge**: the merged chain's energy is the sum of the two parts, plus an
  additional ``k1`` quanta "to account for the energy needed to stop the
  chains and prevent collisions".
* **Move**: a shuttled ion picks up ``k2`` quanta per segment it traverses
  (and ``k_junction`` per junction crossing).

The model lives in its own class so the simulator, the compiler's cost
estimator and the tests all share one implementation.
"""

from __future__ import annotations

from typing import Tuple

from repro.models.params import HeatingParams


class HeatingModel:
    """Pure functions implementing the quanta-accounting rules.

    The model is stateless; chain energies are stored by the simulator (on
    trap/ion objects) and passed in explicitly.  This keeps the physics in one
    place and the state management in another.
    """

    def __init__(self, params: HeatingParams = None) -> None:
        self.params = params or HeatingParams()
        self.params.validate()

    # ------------------------------------------------------------------ #
    def split(self, chain_energy: float, chain_size: int,
              split_size: int) -> Tuple[float, float]:
        """Energies after splitting ``split_size`` ions off a chain.

        Parameters
        ----------
        chain_energy:
            Motional energy (quanta) of the chain before the split.
        chain_size:
            Number of ions in the chain before the split.
        split_size:
            Number of ions split off (typically 1).

        Returns
        -------
        (remaining_energy, split_energy):
            Energy of the chain left behind and of the split-off sub-chain.
        """

        if chain_size <= 0:
            raise ValueError("chain_size must be positive")
        if not 0 < split_size <= chain_size:
            raise ValueError("split_size must be in (0, chain_size]")
        if chain_energy < 0:
            raise ValueError("chain_energy must be non-negative")

        fraction = split_size / chain_size
        split_energy = chain_energy * fraction + self.params.k1
        if split_size == chain_size:
            # Splitting the whole chain off just relabels it; the "remaining"
            # chain is empty and carries no energy.
            return 0.0, split_energy
        remaining_energy = chain_energy * (1.0 - fraction) + self.params.k1
        return remaining_energy, split_energy

    def merge(self, chain_energy: float, incoming_energy: float) -> float:
        """Energy of a chain after merging an incoming sub-chain into it."""

        if chain_energy < 0 or incoming_energy < 0:
            raise ValueError("energies must be non-negative")
        return chain_energy + incoming_energy + self.params.k1

    def move(self, ion_energy: float, num_segments: int = 1) -> float:
        """Energy of a shuttled ion after traversing ``num_segments`` segments."""

        if ion_energy < 0:
            raise ValueError("ion_energy must be non-negative")
        if num_segments < 0:
            raise ValueError("num_segments must be non-negative")
        return ion_energy + self.params.k2 * num_segments

    def cross_junction(self, ion_energy: float, num_junctions: int = 1) -> float:
        """Energy of a shuttled ion after crossing ``num_junctions`` junctions."""

        if ion_energy < 0:
            raise ValueError("ion_energy must be non-negative")
        if num_junctions < 0:
            raise ValueError("num_junctions must be non-negative")
        return ion_energy + self.params.k_junction * num_junctions

    # ------------------------------------------------------------------ #
