"""Multi-objective design-space exploration (Pareto-frontier search).

The paper's central result is a trade-off -- gate fidelity against
shuttling/runtime overhead -- and Figures 6-8 read their answers off that
frontier.  This package searches the frontier *directly* instead of
recovering it from exhaustive sweeps:

* :mod:`~repro.dse.moo.objectives` -- named objective vectors over records
  (fidelity, runtime, communication fraction, shuttles per MS gate), with
  higher-is-better canonicalisation and per-objective normalisation.
* :mod:`~repro.dse.moo.archive` -- the incremental non-dominated archive:
  n-D dominance, deterministic tie-breaking, insertion-order invariance.
* :mod:`~repro.dse.moo.hypervolume` -- exact hypervolume (2-D sweep,
  WFG-style recursion for 3-D and above), seed-free and bit-deterministic.
* :mod:`~repro.dse.moo.propose` -- the EHVI proposer (one surrogate per
  objective, seeded Monte-Carlo expected hypervolume improvement) and the
  ParEGO baseline (seeded random-weight Chebyshev scalarization), both on
  the batch machine of :mod:`repro.dse.adaptive.propose`, built by its
  ``make_proposer``; both run unchanged through ``DSERunner``, ``--jobs
  N`` and the distributed propose/evaluate ledger.
* :mod:`~repro.dse.moo.frontier` -- record-level frontiers, full-cloud
  report rows with a ``dominated`` column, and the hypervolume indicator
  behind ``dse pareto --hypervolume``.

Entry points: ``repro dse run|dispatch --strategy ehvi|parego --objectives
fidelity,runtime`` and ``repro dse pareto --objectives ... --hypervolume``.
"""

from repro.dse.moo.archive import ParetoArchive, brute_force_frontier, dominates
from repro.dse.moo.frontier import cloud_rows, record_frontier, records_hypervolume
from repro.dse.moo.hypervolume import (
    REFERENCE_OFFSET,
    hypervolume,
    hypervolume_improvement,
    normalised_hypervolume,
)
from repro.dse.moo.objectives import (
    normalise,
    objective_vector,
    parse_objectives,
    vector_bounds,
)
from repro.dse.moo.propose import DEFAULT_OBJECTIVES, EHVIProposer, ParEGOProposer

__all__ = [
    "DEFAULT_OBJECTIVES",
    "REFERENCE_OFFSET",
    "EHVIProposer",
    "ParEGOProposer",
    "ParetoArchive",
    "brute_force_frontier",
    "cloud_rows",
    "dominates",
    "hypervolume",
    "hypervolume_improvement",
    "normalise",
    "normalised_hypervolume",
    "objective_vector",
    "parse_objectives",
    "record_frontier",
    "records_hypervolume",
    "vector_bounds",
]
