"""Parameter sweeps over the QCCD design space.

The paper's sweep axes -- trap capacity, communication topology and
microarchitecture (gate implementation x reordering method) -- are expressed
as :class:`~repro.dse.space.DesignSpace` specs, each stated once by a
``*_space`` function here that both the sweep and ``repro sweep --jobs``
read, and executed through the design-space exploration engine
(:mod:`repro.dse`): every sweep routes its points through an
:class:`~repro.dse.store.ExperimentStore` (an ephemeral in-memory one by
default), so passing a persistent ``store`` makes any sweep resumable and
dedupes design points shared between figures.  A store that ledger workers
filled (``--jobs N``) replays every point.  Compilations go through a
:class:`~repro.toolflow.parallel.ProgramCache` whose counters the caller can
read, and each sweep returns a flat record list in the space's enumeration
order.

Records are :class:`~repro.toolflow.runner.ExperimentRecord` when computed in
this process and interchangeable :class:`~repro.dse.store.CachedRecord` views
when replayed from a persistent store; both carry bit-identical metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.ir.circuit import Circuit
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.parallel import ProgramCache
from repro.toolflow.runner import ExperimentRecord

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


def _run_space(circuits: Dict[str, Circuit], space, *,
               cache: Optional[ProgramCache], store) -> List[ExperimentRecord]:
    """Evaluate a space over pre-built suite circuits, in enumeration order."""

    from repro.dse.runner import DSERunner

    runner = DSERunner(space, store=store, circuits=circuits, cache=cache)
    return runner.evaluate_space()


def sweep_capacity(circuits: Dict[str, Circuit],
                   capacities: Sequence[int] = PAPER_CAPACITIES,
                   base: Optional[ArchitectureConfig] = None, *,
                   cache: Optional[ProgramCache] = None,
                   store=None) -> List[ExperimentRecord]:
    """Sweep the trap capacity for every application (Figure 6 axis)."""

    return _run_space(circuits, capacity_space(circuits, capacities, base),
                      cache=cache, store=store)


def sweep_topologies(circuits: Dict[str, Circuit],
                     topologies: Sequence[str] = ("L6", "G2x3"),
                     capacities: Sequence[int] = PAPER_CAPACITIES,
                     base: Optional[ArchitectureConfig] = None, *,
                     cache: Optional[ProgramCache] = None,
                     store=None) -> List[ExperimentRecord]:
    """Sweep topology x capacity for every application (Figure 7 axes)."""

    space = topology_space(circuits, topologies, capacities, base)
    return _run_space(circuits, space, cache=cache, store=store)


def sweep_microarchitecture(circuits: Dict[str, Circuit],
                            capacities: Sequence[int] = PAPER_CAPACITIES,
                            gates: Iterable[str] = PAPER_GATES,
                            reorders: Iterable[str] = PAPER_REORDERS,
                            base: Optional[ArchitectureConfig] = None, *,
                            cache: Optional[ProgramCache] = None,
                            store=None) -> List[ExperimentRecord]:
    """Sweep gate implementation x reordering x capacity (Figure 8 axes).

    The compiled program is shared across gate implementations for each
    (application, capacity, reorder) triple: the space enumerates gates
    innermost, which the DSE runner folds into single-compilation tasks that
    the batch engine (:func:`repro.sim.batch.simulate_batch`) evaluates in
    one shared pass per compilation.
    """

    space = microarchitecture_space(circuits, capacities, gates, reorders,
                                    base)
    return _run_space(circuits, space, cache=cache, store=store)


def select(records: Iterable[ExperimentRecord], **criteria) -> List[ExperimentRecord]:
    """Filter records by application/config attributes.

    Example: ``select(records, application="qft64", capacity=22)``.
    """

    items = tuple(criteria.items())
    matched = []
    for record in records:
        row = record.as_row()
        if all(row.get(key) == value for key, value in items):
            matched.append(record)
    return matched
