"""Acquisition functions and batch proposers for adaptive search.

A *proposer* owns the decision side of an adaptive run: it enumerates the
candidate points of a :class:`~repro.dse.space.DesignSpace` once, then
alternates ``next_batch()`` (which points to evaluate next) with
``ingest()`` (fold the batch's objective values back in).  Crucially, the
proposal sequence is a pure function of (space, seed, ingested values):
evaluation results are deterministic, so any executor -- serial,
``--jobs N``, or a fleet of workers leasing batches off the proposal
ledger -- reproduces the identical sequence and best point, and a restarted
proposer regenerates its own history from the ledger.

* :class:`BayesProposer` -- classic batch Bayesian optimization: a seeded
  random initial batch, then batches of the top acquisition scorers
  (expected improvement or UCB) under a surrogate model, within a fixed
  evaluation budget (default: a quarter of the grid).
* :class:`AdaptiveHalvingProposer` -- multi-fidelity search over the
  scaled-proxy ladder of :class:`~repro.dse.strategies.SuccessiveHalving`,
  but the survivor set of each rung is chosen by surrogate rank: a
  candidate survives while its upper confidence bound reaches the rung's
  best observed score, instead of a fixed ``1/eta`` fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import random

from repro.dse.adaptive.model import PointEncoder, make_surrogate
from repro.dse.space import DesignPoint, DesignSpace
from repro.obs.metrics import registry as _metrics_registry

#: Strategy names implemented by proposers (mirrored in STRATEGY_NAMES).
PROPOSER_NAMES = ("bayes", "adaptive-halving")

#: Acquisition functions understood by :class:`BayesProposer`.
ACQUISITIONS = ("ei", "ucb")


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def expected_improvement(mean: float, std: float, best: float) -> float:
    """Expected improvement of a candidate over the incumbent ``best``."""

    if std <= 0.0:
        return max(0.0, mean - best)
    z = (mean - best) / std
    return (mean - best) * _norm_cdf(z) + std * _norm_pdf(z)


def upper_confidence_bound(mean: float, std: float, beta: float = 2.0) -> float:
    """Optimism-in-the-face-of-uncertainty score ``mean + beta * std``."""

    return mean + beta * std


def _record_proposal(batch: Optional[ProposalBatch], elapsed_s: float) -> None:
    """Meter one ``next_batch`` call on the process metrics registry."""

    if batch is None:
        return
    registry = _metrics_registry()
    registry.counter("dse.propose.batches").inc()
    registry.counter("dse.propose.points").inc(len(batch.keys))
    registry.histogram("dse.propose.latency_s").observe(elapsed_s)


def _record_ingest(values: Sequence[float]) -> None:
    """Meter one ``ingest`` call on the process metrics registry."""

    registry = _metrics_registry()
    registry.counter("dse.ingest.batches").inc()
    registry.counter("dse.ingest.values").inc(len(values))


def default_max_evals(space_size: int, batch_size: int = 4) -> int:
    """The bayes evaluation budget when none is given: a quarter of the grid
    (floored at two batches, capped at the grid itself).

    Shared by :class:`BayesProposer` and
    :func:`~repro.dse.dispatch.write_manifest`, which records it so the
    fleet view plans a run's points without constructing a proposer.
    """

    return min(max(2 * batch_size, space_size // 4), space_size)


@dataclass(frozen=True)
class ProposalBatch:
    """One proposed batch: which candidates to evaluate at which fidelity.

    ``keys`` are stable candidate indices into the proposer's enumeration
    (used for dedup and provenance); ``points`` are the concrete (possibly
    proxy-sized) design points to run.  ``rung`` / ``proxy_qubits`` are the
    multi-fidelity coordinates (``None`` on full-scale batches), stamped
    into the evaluated rows' provenance.
    """

    number: int
    keys: Tuple[int, ...]
    points: Tuple[DesignPoint, ...]
    rung: Optional[int] = None
    proxy_qubits: Optional[int] = None


class BayesProposer:
    """Batch Bayesian optimization over a design space.

    Parameters
    ----------
    space, seed, metric:
        What is optimised.  The metric only names the objective for
        provenance; the *values* arrive via :meth:`ingest` (higher is
        better, as produced by :func:`repro.dse.pareto.objective_value`).
    batch_size:
        Points per proposal batch (also the size of the seeded random
        initialisation batch).
    max_evals:
        Total evaluation budget.  Defaults to a quarter of the grid --
        the operating point the adaptive subsystem is built for.
    surrogate:
        ``"rff"`` or ``"trees"`` (see :mod:`repro.dse.adaptive.model`).
    acquisition:
        ``"ei"`` (expected improvement, default) or ``"ucb"``.
    """

    strategy_name = "bayes"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", batch_size: int = 4,
                 max_evals: Optional[int] = None, surrogate: str = "rff",
                 acquisition: str = "ei", ucb_beta: float = 2.0) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if acquisition not in ACQUISITIONS:
            raise ValueError(f"unknown acquisition {acquisition!r}; "
                             f"expected one of {ACQUISITIONS}")
        self.space = space
        self.seed = seed
        self.metric = metric
        self.batch_size = batch_size
        self.candidates: List[DesignPoint] = list(space.points())
        if max_evals is None:
            max_evals = default_max_evals(space.size, batch_size)
        self.max_evals = min(max_evals, len(self.candidates))
        if self.max_evals < 1:
            raise ValueError("max_evals must allow at least one evaluation")
        self.surrogate_name = surrogate
        self.acquisition = acquisition
        self.ucb_beta = ucb_beta
        self._encoder = PointEncoder(space)
        self._features = [self._encoder.encode(point)
                          for point in self.candidates]
        self._surrogate = make_surrogate(surrogate, self._encoder.dim,
                                         seed=seed)
        self._rng = random.Random(seed)
        self._observed: Dict[int, float] = {}
        self._proposed: set = set()
        self._batches = 0

    # ------------------------------------------------------------------ #
    def spec(self) -> Dict[str, object]:
        """JSON-safe constructor spec (the manifest's ``strategy`` entry)."""

        return {
            "name": self.strategy_name,
            "seed": self.seed,
            "metric": self.metric,
            "batch_size": self.batch_size,
            "max_evals": self.max_evals,
            "surrogate": self.surrogate_name,
            "acquisition": self.acquisition,
            "ucb_beta": self.ucb_beta,
        }

    @property
    def evaluations(self) -> int:
        return len(self._proposed)

    def next_batch(self) -> Optional[ProposalBatch]:
        """The next batch to evaluate, or ``None`` when the budget is spent."""

        started = perf_counter()
        batch = self._next_batch()
        _record_proposal(batch, perf_counter() - started)
        return batch

    def _next_batch(self) -> Optional[ProposalBatch]:
        remaining = self.max_evals - len(self._proposed)
        unproposed = [index for index in range(len(self.candidates))
                      if index not in self._proposed]
        if remaining <= 0 or not unproposed:
            return None
        count = min(self.batch_size, remaining, len(unproposed))
        if not self._observed:
            # Seeded random initialisation; sorted so the batch runs in
            # enumeration order (deterministic and gate-fold friendly).
            keys = sorted(self._rng.sample(unproposed, count))
        else:
            scored = self._scores(unproposed)
            ranked = sorted(range(len(unproposed)),
                            key=lambda i: (-scored[i], unproposed[i]))
            keys = sorted(unproposed[i] for i in ranked[:count])
        self._proposed.update(keys)
        self._batches += 1
        return ProposalBatch(
            number=self._batches,
            keys=tuple(keys),
            points=tuple(self.candidates[key] for key in keys),
        )

    def _scores(self, unproposed: Sequence[int]) -> List[float]:
        best = max(self._observed.values())
        scores = []
        for index in unproposed:
            mean, std = self._surrogate.predict(self._features[index])
            if self.acquisition == "ei":
                scores.append(expected_improvement(mean, std, best))
            else:
                scores.append(upper_confidence_bound(mean, std, self.ucb_beta))
        return scores

    def ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        """Fold one evaluated batch back in (objective values, batch order)."""

        if len(values) != len(batch.keys):
            raise ValueError(f"batch {batch.number} has {len(batch.keys)} "
                             f"points but {len(values)} values")
        for key, value in zip(batch.keys, values):
            self._observed[key] = float(value)
            self._surrogate.observe(self._features[key], float(value))
        _record_ingest(values)

    def best(self) -> Optional[Tuple[int, float]]:
        """``(candidate index, value)`` of the best observation (ties: earliest)."""

        if not self._observed:
            return None
        best_key = min(self._observed,
                       key=lambda key: (-self._observed[key], key))
        return best_key, self._observed[best_key]

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        """A report row describing one ingested batch."""

        best = self.best()
        return {"batch": batch.number, "proposed": len(batch.keys),
                "evaluations": self.evaluations,
                "best": None if best is None else best[1]}


class AdaptiveHalvingProposer:
    """Multi-fidelity scheduler: surrogate-ranked promotion up a proxy ladder.

    Rung ``r`` evaluates the surviving candidates with their applications
    rebuilt at ``proxy_qubits * 2**r`` qubits (the same ladder as
    :class:`~repro.dse.strategies.SuccessiveHalving`).  After each rung a
    fresh surrogate is fit on the rung's scores, and a candidate is
    promoted while its upper confidence bound reaches the rung's best
    observed score -- so the survivor count adapts to how separable the
    rung's results are (a clear leader eliminates aggressively, a noisy
    rung keeps contenders) instead of a fixed ``1/eta``.  Survivors are
    capped at half the rung (progress is guaranteed) and floored at
    ``min_survivors``; the final rung runs at the space's true size.
    """

    strategy_name = "adaptive-halving"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", proxy_qubits: int = 12,
                 surrogate: str = "trees", min_survivors: int = 1,
                 ucb_beta: float = 1.0) -> None:
        if proxy_qubits < 8:
            raise ValueError("proxy_qubits must be at least 8 "
                             "(the smallest scaled suite)")
        if min_survivors < 1:
            raise ValueError("min_survivors must be positive")
        self.space = space
        self.seed = seed
        self.metric = metric
        self.proxy_qubits = proxy_qubits
        self.surrogate_name = surrogate
        self.min_survivors = min_survivors
        self.ucb_beta = ucb_beta
        self.candidates: List[DesignPoint] = list(space.points())
        # The proxy ladder only makes sense below the true size; None means
        # "application default" (paper scale, 64-78 qubits).
        real_sizes = [qubits for qubits in space.qubits if qubits is not None]
        self._size_cap = min(real_sizes) if real_sizes else None
        self._encoder = PointEncoder(space)
        self._survivors = list(range(len(self.candidates)))
        self._rung = 0
        self._size = proxy_qubits
        self._final_scores: Optional[Dict[int, float]] = None
        self._batches = 0
        self._done = False
        self.trace: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    def spec(self) -> Dict[str, object]:
        return {
            "name": self.strategy_name,
            "seed": self.seed,
            "metric": self.metric,
            "proxy_qubits": self.proxy_qubits,
            "surrogate": self.surrogate_name,
            "min_survivors": self.min_survivors,
            "ucb_beta": self.ucb_beta,
        }

    @property
    def evaluations(self) -> int:
        return sum(entry["proposed"] for entry in self.trace)

    def _at_final_rung(self) -> bool:
        if len(self._survivors) <= self.min_survivors:
            return True
        return self._size_cap is not None and self._size >= self._size_cap

    def next_batch(self) -> Optional[ProposalBatch]:
        started = perf_counter()
        batch = self._next_batch()
        _record_proposal(batch, perf_counter() - started)
        return batch

    def _next_batch(self) -> Optional[ProposalBatch]:
        if self._done:
            return None
        self._batches += 1
        if self._at_final_rung():
            return ProposalBatch(
                number=self._batches,
                keys=tuple(self._survivors),
                points=tuple(self.candidates[key] for key in self._survivors),
                rung=self._rung,
                proxy_qubits=None,  # full scale
            )
        return ProposalBatch(
            number=self._batches,
            keys=tuple(self._survivors),
            points=tuple(self.candidates[key].with_qubits(self._size)
                         for key in self._survivors),
            rung=self._rung,
            proxy_qubits=self._size,
        )

    def ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        if len(values) != len(batch.keys):
            raise ValueError(f"batch {batch.number} has {len(batch.keys)} "
                             f"points but {len(values)} values")
        scores = dict(zip(batch.keys, (float(v) for v in values)))
        _record_ingest(values)
        if batch.proxy_qubits is None:
            self._final_scores = scores
            self._done = True
            self.trace.append({"rung": self._rung, "proxy_qubits": None,
                               "proposed": len(batch.keys),
                               "kept": len(batch.keys)})
            return
        kept = self._promote(batch, scores)
        _metrics_registry().counter("dse.rung.promotions").inc(len(kept))
        self.trace.append({"rung": self._rung,
                           "proxy_qubits": batch.proxy_qubits,
                           "proposed": len(batch.keys), "kept": len(kept)})
        self._survivors = kept
        self._rung += 1
        self._size *= 2

    def _promote(self, batch: ProposalBatch,
                 scores: Dict[int, float]) -> List[int]:
        """Surrogate-ranked survivor selection for one proxy rung."""

        surrogate = make_surrogate(
            self.surrogate_name, self._encoder.dim,
            seed=self.seed * 1009 + self._rung)
        features = {key: self._encoder.encode(self.candidates[key])
                    for key in batch.keys}
        for key in batch.keys:  # deterministic ingestion order
            surrogate.observe(features[key], scores[key])
        best_observed = max(scores.values())
        optimistic = []
        for key in batch.keys:
            mean, std = surrogate.predict(features[key])
            bound = upper_confidence_bound(mean, std, self.ucb_beta)
            if bound >= best_observed - 1e-12:
                optimistic.append(key)
        # Rank promotion candidates by observed score (surrogate chose who
        # *may* win; the rung's data orders them), then bound the count:
        # at most half the rung (guaranteed progress), at least
        # min_survivors (never eliminate everyone on model overconfidence).
        cap = max(self.min_survivors, math.ceil(len(batch.keys) / 2))
        ranked = sorted(batch.keys, key=lambda key: (-scores[key], key))
        chosen = [key for key in ranked if key in set(optimistic)][:cap]
        for key in ranked:  # refill to the floor from the rung ranking
            if len(chosen) >= self.min_survivors:
                break
            if key not in chosen:
                chosen.append(key)
        return sorted(chosen)

    def best(self) -> Optional[Tuple[int, float]]:
        """Best *full-scale* candidate (ties: earliest); None before the end."""

        if not self._final_scores:
            return None
        best_key = min(self._final_scores,
                       key=lambda key: (-self._final_scores[key], key))
        return best_key, self._final_scores[best_key]

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        return dict(self.trace[-1], batch=batch.number) if self.trace else {}


def make_proposer(space: DesignSpace, spec: Dict[str, object]):
    """Build a proposer from a manifest/strategy spec dictionary.

    Covers the whole adaptive family: the scalar proposers here and the
    multi-objective ones of :mod:`repro.dse.moo.propose` (``ehvi``,
    ``parego``), so the distributed protocol needs a single factory.
    """

    from repro.dse.moo.propose import MOO_PROPOSER_NAMES, make_moo_proposer

    spec = dict(spec)
    name = spec.pop("name", None)
    if name == "bayes":
        return BayesProposer(space, **spec)
    if name == "adaptive-halving":
        return AdaptiveHalvingProposer(space, **spec)
    if name in MOO_PROPOSER_NAMES:
        return make_moo_proposer(space, dict(spec, name=name))
    raise ValueError(f"unknown adaptive strategy {name!r}; expected one of "
                     f"{PROPOSER_NAMES + MOO_PROPOSER_NAMES}")
