"""Proposer-driven design-space search: every strategy but the grid.

This package holds the proposers of :mod:`repro.dse`: instead of fixing
every evaluated point up front (the grid), a proposer-driven run
alternates between *proposing* a batch of candidate points -- a seeded
sample, an axis sweep, a proxy rung, or the picks of a surrogate model
trained on every result seen so far -- and *evaluating* that batch through
the ordinary compile/simulate pipeline and experiment store.

* :mod:`~repro.dse.adaptive.model` -- pure-python incremental surrogate
  regressors over encoded design points: random-Fourier-feature ridge
  regression (:class:`RFFSurrogate`) and a bagged regression-tree ensemble
  with predictive variance (:class:`TreeEnsembleSurrogate`), both
  bit-deterministic under a fixed seed.
* :mod:`~repro.dse.adaptive.propose` -- expected-improvement
  acquisition (and the upper confidence bound of adaptive-halving's
  promotion filter), the one proposer factory (:func:`make_proposer`) and
  budget rule (:func:`default_max_evals`), the ``random`` and ``greedy``
  proposers, the :class:`BayesProposer` batch proposer, and the
  scaled-proxy ladder, which promotes the best-ranked half of each rung
  (``halving``) or, as :class:`AdaptiveHalvingProposer`, only the
  candidates its surrogate rates as possible winners.
* :mod:`~repro.dse.adaptive.protocol` -- the proposer of the distributed
  propose/evaluate split: it writes each batch as signed proposal parts
  into the store's work ledger (:class:`~repro.dse.dispatch.WorkLedger`,
  the same items, leases and done markers as a grid run's shards), the
  ordinary dispatch workers lease the parts and append results to the
  store, and the proposer ingests them incrementally to emit the next
  batch.  A killed proposer or worker is recoverable from the ledger
  alone.

Every strategy of :mod:`repro.dse.strategies` but the grid -- ``random``,
``greedy``, ``halving``, ``bayes``, ``adaptive-halving`` and the
multi-objective ``ehvi`` and ``parego`` of :mod:`repro.dse.moo` -- is one
proposer spec: a :class:`~repro.dse.strategies.ProposerStrategy` drives
its proposer single-process through :class:`~repro.dse.runner.DSERunner`;
``repro dse dispatch --strategy bayes`` and ``repro dse propose`` drive it
across a worker fleet.  Either way the proposal sequence depends only on
(space, strategy, seed) and the deterministic evaluation results, so serial,
``--jobs N`` and dispatched runs -- even with workers killed mid-batch --
explore the same points and report the same best.

The names below resolve on first access (:mod:`repro._lazy`): a process
that only reads a default budget or builds a proposer loads no compiler,
which only the protocol's store index needs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dse.adaptive.model": ("PointEncoder", "RFFSurrogate",
                                 "TreeEnsembleSurrogate", "make_surrogate"),
    "repro.dse.adaptive.propose": ("AdaptiveHalvingProposer", "BayesProposer",
                                   "ProposalBatch", "default_max_evals",
                                   "expected_improvement", "make_proposer",
                                   "upper_confidence_bound"),
    "repro.dse.adaptive.protocol": ("run_proposer",),
})
