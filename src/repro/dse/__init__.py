"""Design-space exploration: spaces, stores, strategies, runners, frontiers.

This package layers a general exploration engine over the fast
compile/simulate core:

* :mod:`~repro.dse.space` -- :class:`DesignSpace`, the declarative cross
  product of sweep axes, with validation, enumeration and stable point
  fingerprints.
* :mod:`~repro.dse.store` -- :class:`ExperimentStore`, an append-only JSONL
  store keyed by point fingerprint: dedup, resume-after-kill, shard merge.
* :mod:`~repro.dse.strategies` -- exhaustive grid, seeded random sampling,
  greedy coordinate descent, successive halving and the four adaptive
  strategies (``bayes``, ``adaptive-halving``, ``ehvi``, ``parego``, each
  a :class:`ProposerStrategy` over its proposer spec), all deterministic
  under a fixed seed however the work is split.
* :mod:`~repro.dse.runner` -- :class:`DSERunner`, which drives points through
  the sweep executor with store replay, gate fan-out and ``--shard i/N``
  support.
* :mod:`~repro.dse.pareto` -- best-point selection and fidelity-vs-runtime
  Pareto frontiers.
* :mod:`~repro.dse.dispatch` -- filesystem-coordinated distributed
  execution: a :class:`WorkLedger` of signed work items and lease files
  (atomic claims, heartbeat renewal, expiry-based reclaim of dead
  workers), the one worker loop :func:`run_worker`, and a
  :class:`Dispatcher` that writes a grid's shards (or runs an adaptive
  proposer), runs local worker processes (``repro dse dispatch``, and
  ``--jobs N`` of ``repro sweep`` and ``dse run`` through
  :func:`~repro.dse.dispatch.fill_store`) or prints remote launch
  commands, and watches progress with a ``wall_s``-driven ETA.
* :mod:`~repro.dse.adaptive` -- model-based search: incremental surrogate
  regressors, expected-improvement/UCB batch proposers, a surrogate-ranked
  multi-fidelity ladder, and the proposer of the distributed
  propose/evaluate protocol (signed proposal parts in the store's work
  ledger; ``repro dse dispatch --strategy bayes``, ``repro dse propose``).
* :mod:`~repro.dse.moo` -- multi-objective frontier search: named objective
  vectors, the incremental Pareto archive, exact 2-D/3-D hypervolume, and
  the EHVI/ParEGO proposers (``repro dse run|dispatch --strategy
  ehvi|parego --objectives fidelity,runtime``).

The paper's Figures 6-8 are expressed as design spaces and executed through
this engine (see :mod:`repro.toolflow.sweep`); ``python -m repro dse`` is the
command-line entry point for custom studies.

The names below resolve on first access (:mod:`repro._lazy`), so the
dispatcher and the exporter import the store and the ledger without the
compiler or the search strategies.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dse.adaptive": ("AdaptiveHalvingProposer", "BayesProposer",
                           "run_proposer"),
    "repro.dse.dispatch": ("DEFAULT_TTL_S", "Dispatcher", "LeaseLost",
                           "WorkLedger", "estimate_eta_s", "read_manifest",
                           "run_worker", "spawn_worker_process",
                           "write_manifest"),
    "repro.dse.pareto": ("OBJECTIVES", "best_record", "frontier_rows",
                         "objective_value", "pareto_frontier",
                         "per_app_frontiers"),
    "repro.dse.moo": ("DEFAULT_OBJECTIVES", "EHVIProposer", "ParEGOProposer",
                      "ParetoArchive", "cloud_rows", "dominates",
                      "hypervolume", "objective_vector", "parse_objectives",
                      "record_frontier", "records_hypervolume"),
    "repro.dse.runner": ("DSERunner",),
    "repro.dse.space": ("AXES", "DesignPoint", "DesignSpace", "Shard",
                        "point_from_spec"),
    "repro.dse.store": ("CachedRecord", "CachedResult", "ExperimentStore",
                        "StoreCorruptionWarning", "record_to_row",
                        "row_to_record"),
    "repro.dse.strategies": ("MOO_STRATEGY_NAMES", "STRATEGY_NAMES",
                             "CoordinateDescent", "ExhaustiveGrid",
                             "ProposerStrategy", "RandomSampling", "Strategy",
                             "StrategyResult", "SuccessiveHalving",
                             "make_strategy"),
})
