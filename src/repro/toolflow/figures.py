"""Harnesses that regenerate the data series of the paper's figures.

Each function runs the relevant sweep and returns a plain-dictionary bundle of
series (lists indexed like ``capacities``), ready to be printed as text or
plotted.  The default parameters reproduce the paper's setup; passing a
scaled-down suite and a shorter capacity list yields fast shape-preserving
versions for tests and benchmarks.

* :func:`figure6` -- trap-sizing study (L6, FM, GS): runtime, fidelity, QFT
  computation/communication breakdown, motional energy, Supremacy error split.
* :func:`figure7` -- topology study (L6 versus G2x3, FM, GS): runtime,
  fidelity, SquareRoot motional heating.
* :func:`figure8` -- microarchitecture study (AM1/AM2/PM/FM x GS/IS on L6):
  fidelity and runtime per combination.

All three drivers delegate to the sweeps in :mod:`repro.toolflow.sweep` and
therefore accept ``cache`` (a :class:`~repro.toolflow.parallel.ProgramCache`
whose hit, miss and batch counters the caller can read; the sweep releases
each compilation once all its gate variants are stored, so the cache ends a
figure empty) and ``store`` (an :class:`~repro.dse.store.ExperimentStore`,
in memory or persistent), which makes a figure regeneration resumable and
is how figures share work: design points already in the store are replayed
bit-identically instead of recomputed, so regenerating Figure 6 after
Figure 7 on one store compiles nothing.  That is also how ``repro sweep
--jobs N`` runs a figure in parallel: ledger workers fill the store with the
figure's space, then the driver replays it.  The assembled series are
identical for every store state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.apps.suite import table2_suite
from repro.ir.circuit import Circuit
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.parallel import ProgramCache
from repro.toolflow.sweep import (
    PAPER_CAPACITIES,
    PAPER_GATES,
    PAPER_REORDERS,
    sweep_capacity,
    sweep_microarchitecture,
    sweep_topologies,
)


def _suite_or_default(suite: Optional[Dict[str, Circuit]]) -> Dict[str, Circuit]:
    return suite if suite is not None else table2_suite()


def _take(records, circuit: Circuit, **expected):
    """Next record, verified against the enumeration the caller is walking.

    The figure drivers recover each record's suite key positionally (the
    sweeps return records in task order); this guard turns any future drift
    between the sweep enumeration and the walk into a loud error instead of
    silently misattributed series.
    """

    record = next(records)
    mismatches = {
        key: (value, getattr(record.config, key))
        for key, value in expected.items()
        if getattr(record.config, key) != value
    }
    if record.application != circuit.name:
        mismatches["application"] = (circuit.name, record.application)
    if mismatches:
        raise RuntimeError(
            f"sweep records out of step with the figure enumeration: {mismatches}"
        )
    return record


def figure6(suite: Optional[Dict[str, Circuit]] = None,
            capacities: Sequence[int] = PAPER_CAPACITIES,
            base: Optional[ArchitectureConfig] = None, *,
            cache: Optional[ProgramCache] = None,
            store=None) -> Dict[str, object]:
    """Trap-sizing study (Figure 6a-g).

    Returns a dictionary with keys ``capacities``, ``runtime_s``, ``fidelity``,
    ``qft_breakdown``, ``max_motional_energy`` and ``supremacy_error``.
    """

    suite = _suite_or_default(suite)
    base = base or ArchitectureConfig(topology="L6", gate="FM", reorder="GS")

    runtime: Dict[str, List[float]] = {name: [] for name in suite}
    fidelity: Dict[str, List[float]] = {name: [] for name in suite}
    motional: Dict[str, List[float]] = {name: [] for name in suite}
    qft_breakdown = {"computation_s": [], "communication_s": []}
    supremacy_error = {"motional": [], "background": []}

    records = iter(sweep_capacity(suite, capacities=capacities, base=base,
                                  cache=cache, store=store))
    # Records come back in sweep-enumeration order (capacity-major, then
    # suite order), so walk the same loops to recover the suite keys.
    for capacity in capacities:
        for name in suite:
            result = _take(records, suite[name], trap_capacity=capacity).result
            runtime[name].append(result.duration_seconds)
            fidelity[name].append(result.fidelity)
            motional[name].append(result.max_motional_energy)
            if name == "QFT":
                qft_breakdown["computation_s"].append(result.computation_seconds)
                qft_breakdown["communication_s"].append(result.communication_seconds)
            if name == "Supremacy":
                supremacy_error["motional"].append(result.mean_motional_error)
                supremacy_error["background"].append(result.mean_background_error)

    return {
        "capacities": list(capacities),
        "config": base,
        "runtime_s": runtime,
        "fidelity": fidelity,
        "qft_breakdown": qft_breakdown,
        "max_motional_energy": motional,
        "supremacy_error": supremacy_error,
    }


def figure7(suite: Optional[Dict[str, Circuit]] = None,
            capacities: Sequence[int] = PAPER_CAPACITIES,
            topologies: Sequence[str] = ("L6", "G2x3"),
            base: Optional[ArchitectureConfig] = None, *,
            cache: Optional[ProgramCache] = None,
            store=None) -> Dict[str, object]:
    """Topology study (Figure 7a-g).

    Returns ``capacities``, ``topologies``, ``runtime_s``, ``fidelity`` (both
    keyed ``app -> topology -> series``) and ``squareroot_heating``.
    """

    suite = _suite_or_default(suite)
    base = base or ArchitectureConfig(gate="FM", reorder="GS")

    runtime: Dict[str, Dict[str, List[float]]] = {
        name: {topology: [] for topology in topologies} for name in suite
    }
    fidelity: Dict[str, Dict[str, List[float]]] = {
        name: {topology: [] for topology in topologies} for name in suite
    }
    heating: Dict[str, List[float]] = {topology: [] for topology in topologies}

    records = iter(sweep_topologies(suite, topologies=topologies, capacities=capacities,
                                    base=base, cache=cache, store=store))
    for topology in topologies:
        for capacity in capacities:
            for name in suite:
                result = _take(records, suite[name], topology=topology,
                               trap_capacity=capacity).result
                runtime[name][topology].append(result.duration_seconds)
                fidelity[name][topology].append(result.fidelity)
                if name == "SquareRoot":
                    heating[topology].append(result.max_motional_energy)

    return {
        "capacities": list(capacities),
        "topologies": list(topologies),
        "config": base,
        "runtime_s": runtime,
        "fidelity": fidelity,
        "squareroot_heating": heating,
    }


def figure8(suite: Optional[Dict[str, Circuit]] = None,
            capacities: Sequence[int] = PAPER_CAPACITIES,
            gates: Iterable[str] = PAPER_GATES,
            reorders: Iterable[str] = PAPER_REORDERS,
            base: Optional[ArchitectureConfig] = None, *,
            cache: Optional[ProgramCache] = None,
            store=None) -> Dict[str, object]:
    """Microarchitecture study (Figure 8a-l).

    Returns ``capacities``, ``combos`` (e.g. ``"FM-GS"``), ``fidelity`` and
    ``runtime_s`` keyed ``app -> combo -> series``.  Each (application,
    capacity, reorder) triple is compiled once and batch-simulated under
    every gate implementation in one shared pass
    (:func:`repro.sim.batch.simulate_batch` via the DSE runner's gate
    fan-out).
    """

    suite = _suite_or_default(suite)
    base = base or ArchitectureConfig(topology="L6")
    gates = tuple(gates)
    reorders = tuple(reorders)
    combos = [f"{gate}-{reorder}" for reorder in reorders for gate in gates]

    fidelity: Dict[str, Dict[str, List[float]]] = {
        name: {combo: [] for combo in combos} for name in suite
    }
    runtime: Dict[str, Dict[str, List[float]]] = {
        name: {combo: [] for combo in combos} for name in suite
    }

    records = iter(sweep_microarchitecture(suite, capacities=capacities, gates=gates,
                                           reorders=reorders, base=base,
                                           cache=cache, store=store))
    for reorder in reorders:
        for capacity in capacities:
            for name in suite:
                for gate in gates:
                    result = _take(records, suite[name], trap_capacity=capacity,
                                   reorder=reorder, gate=gate).result
                    combo = f"{gate}-{reorder}"
                    fidelity[name][combo].append(result.fidelity)
                    runtime[name][combo].append(result.duration_seconds)

    return {
        "capacities": list(capacities),
        "combos": combos,
        "config": base,
        "fidelity": fidelity,
        "runtime_s": runtime,
    }
