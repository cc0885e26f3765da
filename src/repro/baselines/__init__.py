"""Baseline architectures the QCCD design is compared against.

The paper motivates QCCD with the scaling problems of single-trap systems
(Section III.A): in one long chain, gate durations and the laser-instability
error term grow with the chain length, so fidelity collapses well before
50-100 qubits.  :mod:`~repro.baselines.single_trap` implements that baseline
so the collapse can be demonstrated quantitatively alongside the QCCD results.
"""

from repro.baselines.single_trap import simulate_single_trap

__all__ = ["simulate_single_trap"]
