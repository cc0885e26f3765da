"""The paper's sweep axes as design spaces.

Trap capacity, communication topology and microarchitecture (gate
implementation x reordering method) are each stated once, as a
:class:`~repro.dse.space.DesignSpace` built by a ``*_space`` function here.
The figure drivers (:mod:`repro.toolflow.figures`) evaluate them with the
DSE runner and ``repro sweep --jobs`` hands the same spaces to its ledger
workers, so the parallel run fills exactly the points the serial driver
then replays.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.toolflow.config import ArchitectureConfig

#: Capacities evaluated in the paper's figures.
PAPER_CAPACITIES = (14, 18, 22, 26, 30, 34)

#: Gate implementations evaluated in Figure 8.
PAPER_GATES = ("AM1", "AM2", "PM", "FM")

#: Reorder methods evaluated in Figure 8.
PAPER_REORDERS = ("GS", "IS")


def _paper_space(apps: Iterable[str], base: Optional[ArchitectureConfig],
                 **axes):
    """A figure's space: ``apps`` x ``axes``, the other axes from ``base``."""

    from repro.dse.space import DesignSpace

    base = base or ArchitectureConfig()
    axes = {"topologies": (base.topology,), "gates": (base.gate,),
            "reorders": (base.reorder,), **axes}
    return DesignSpace(apps=tuple(apps), buffers=(base.buffer_ions,),
                       model=base.model, **axes)


def capacity_space(apps: Iterable[str],
                   capacities: Sequence[int] = PAPER_CAPACITIES,
                   base: Optional[ArchitectureConfig] = None):
    """The Figure 6 space: ``apps`` x ``capacities`` on ``base``'s device."""

    return _paper_space(apps, base, capacities=tuple(capacities))


def topology_space(apps: Iterable[str],
                   topologies: Sequence[str] = ("L6", "G2x3"),
                   capacities: Sequence[int] = PAPER_CAPACITIES,
                   base: Optional[ArchitectureConfig] = None):
    """The Figure 7 space: ``apps`` x ``topologies`` x ``capacities``."""

    return _paper_space(apps, base, topologies=tuple(topologies),
                        capacities=tuple(capacities))


def microarchitecture_space(apps: Iterable[str],
                            capacities: Sequence[int] = PAPER_CAPACITIES,
                            gates: Iterable[str] = PAPER_GATES,
                            reorders: Iterable[str] = PAPER_REORDERS,
                            base: Optional[ArchitectureConfig] = None):
    """The Figure 8 space: ``apps`` x ``capacities`` x ``gates`` x ``reorders``.

    It enumerates reorder-major (the GS block, then the IS block), with the
    gate variants of one compilation innermost, which the DSE runner folds
    into single-compilation tasks.
    """

    return _paper_space(apps, base, capacities=tuple(capacities),
                        gates=tuple(gates), reorders=tuple(reorders),
                        order=("topology", "reorder", "capacity", "buffer",
                               "qubits", "app", "gate"))
