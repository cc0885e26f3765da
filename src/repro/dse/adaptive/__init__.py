"""Adaptive, model-based design-space search.

This package layers surrogate-guided optimization over the exploration
engine of :mod:`repro.dse`: instead of fixing every evaluated point up
front (grid, random, halving ladders), an adaptive run alternates between
*proposing* a small batch of candidate points -- chosen by a surrogate
model trained on every result seen so far -- and *evaluating* that batch
through the ordinary compile/simulate pipeline and experiment store.

* :mod:`~repro.dse.adaptive.model` -- pure-python incremental surrogate
  regressors over encoded design points: random-Fourier-feature ridge
  regression (:class:`RFFSurrogate`) and a bagged regression-tree ensemble
  with predictive variance (:class:`TreeEnsembleSurrogate`), both
  bit-deterministic under a fixed seed.
* :mod:`~repro.dse.adaptive.propose` -- expected-improvement and UCB
  acquisition, the one proposer factory (:func:`make_proposer`) and budget
  rule (:func:`default_max_evals`), the :class:`BayesProposer` batch
  proposer, and the :class:`AdaptiveHalvingProposer` multi-fidelity
  scheduler that promotes points through the scaled-proxy ladder on
  surrogate rank instead of a fixed eta.
* :mod:`~repro.dse.adaptive.protocol` -- the proposer of the distributed
  propose/evaluate split: it writes each batch as signed proposal parts
  into the store's work ledger (:class:`~repro.dse.dispatch.WorkLedger`,
  the same items, leases and done markers as a grid run's shards), the
  ordinary dispatch workers lease the parts and append results to the
  store, and the proposer ingests them incrementally to emit the next
  batch.  A killed proposer or worker is recoverable from the ledger
  alone.

The four adaptive strategies of :mod:`repro.dse.strategies` -- ``bayes``,
``adaptive-halving`` and the multi-objective ``ehvi`` and ``parego`` of
:mod:`repro.dse.moo` -- are each one proposer spec: a
:class:`~repro.dse.strategies.ProposerStrategy` drives its proposer
single-process through :class:`~repro.dse.runner.DSERunner`; ``repro dse
dispatch --strategy bayes`` and ``repro dse propose`` drive it across a
worker fleet.  Either way the proposal sequence depends only on (space,
strategy, seed) and the deterministic evaluation results, so serial,
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
