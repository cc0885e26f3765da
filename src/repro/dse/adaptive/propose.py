"""The proposers of adaptive search, their one factory and one budget rule.

A *proposer* owns the decision side of an adaptive run: it enumerates the
candidate points of a :class:`~repro.dse.space.DesignSpace` once, then
alternates ``next_batch()`` (which points to evaluate next) with
``ingest()`` (fold the batch's :meth:`~Proposer.values` back in).
Crucially, the proposal sequence is a pure function of (space, seed,
ingested values): evaluation results are deterministic, so any executor --
serial, ``--jobs N``, or a fleet of workers leasing batches off the
proposal ledger -- reproduces the identical sequence and best point, and a
restarted proposer regenerates its own history from the ledger.

An adaptive strategy *is* its proposer spec: the ``strategy`` entry of a
dispatch manifest (``{"name": "bayes", "seed": 0, ...}``), which
:func:`make_proposer` turns into a proposer and
:func:`default_max_evals` gives its default budget.

* :class:`Proposer` -- what every proposer shares: the candidates, metered
  ``next_batch``/``ingest``, the values it ingests, the provenance stamp
  of the rows it asks for, and the outcome its complete marker records.
* :class:`BatchProposer` -- the batch machine of the budgeted proposers
  (``bayes`` here, ``ehvi`` and ``parego`` in
  :mod:`repro.dse.moo.propose`): a seeded random first batch, then the top
  acquisition scorers, within an evaluation budget.
* :class:`BayesProposer` -- classic batch Bayesian optimization: expected
  improvement or UCB under one surrogate model.
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
from repro.dse.pareto import objective_value
from repro.dse.space import DesignPoint, DesignSpace
from repro.obs.metrics import registry as _metrics_registry

#: Acquisition functions understood by :class:`BayesProposer`.
ACQUISITIONS = ("ei", "ucb")

#: The default budget of each budgeted strategy, as the share of the grid
#: it evaluates: best-point search a quarter, frontier search half (a
#: frontier has many members).  A ladder sizes itself and has no budget.
GRID_SHARE = {"bayes": 4, "ehvi": 2, "parego": 2}


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


def default_max_evals(name: str, space_size: int,
                      batch_size: int = 4) -> Optional[int]:
    """The one budget rule: strategy ``name``'s evaluation budget when its
    spec gives no ``max_evals``.

    Its :data:`GRID_SHARE` of the grid, floored at two batches and capped
    at the grid itself; ``None`` for a strategy without a fixed budget
    (``adaptive-halving``).  The budgeted proposers default to it, and
    :func:`~repro.dse.dispatch.write_manifest` records it so the fleet view
    plans a run's points without constructing a proposer.
    """

    share = GRID_SHARE.get(name)
    if share is None:
        return None
    return min(max(2 * batch_size, space_size // share), space_size)


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


class Proposer:
    """The contract every proposer keeps, whatever executes its batches.

    Subclasses set :attr:`name` (the strategy name a spec carries) and
    implement ``_next_batch``, ``_ingest``, :meth:`best`,
    :meth:`trace_entry` and the ``evaluations`` count; :meth:`next_batch`
    and :meth:`ingest` meter every call on the process metrics registry
    (``dse.propose.*``, ``dse.ingest.*``).
    """

    name = ""

    def __init__(self, space: DesignSpace, *, seed: int, metric: str) -> None:
        self.space = space
        self.seed = seed
        #: The scalar objective :meth:`best` ranks by (and a scalar
        #: proposer ingests).
        self.metric = metric
        self.candidates: List[DesignPoint] = list(space.points())

    def next_batch(self) -> Optional[ProposalBatch]:
        """The next batch to evaluate, or ``None`` once the search is done."""

        started = perf_counter()
        batch = self._next_batch()
        if batch is not None:
            registry = _metrics_registry()
            registry.counter("dse.propose.batches").inc()
            registry.counter("dse.propose.points").inc(len(batch.keys))
            registry.histogram("dse.propose.latency_s").observe(
                perf_counter() - started)
        return batch

    def ingest(self, batch: ProposalBatch, values: Sequence) -> None:
        """Fold one evaluated batch back in (:meth:`values`, batch order)."""

        if len(values) != len(batch.keys):
            raise ValueError(f"batch {batch.number} has {len(batch.keys)} "
                             f"points but {len(values)} values")
        self._ingest(batch, values)
        registry = _metrics_registry()
        registry.counter("dse.ingest.batches").inc()
        registry.counter("dse.ingest.values").inc(len(values))

    def values(self, records: Sequence[object]) -> List:
        """What :meth:`ingest` takes for a batch's evaluated records: each
        record's :attr:`metric` objective value (higher is better)."""

        return [objective_value(record, self.metric) for record in records]

    def stamp(self) -> Dict[str, object]:
        """The provenance every row this proposer asks for carries (beside
        its batch's ``rung`` and ``proxy_qubits``)."""

        return {"strategy": self.name, "seed": self.seed}

    def frontier(self) -> Optional[List[Tuple[int, Tuple[float, ...]]]]:
        """The Pareto archive of a multi-objective proposer; ``None`` here."""

        return None

    def outcome(self) -> Dict[str, object]:
        """What a finished run's complete marker records: the evaluation
        count and the best point."""

        best = self.best()
        return {"evaluations": self.evaluations,
                "best": None if best is None else {
                    "key": best[0], "value": best[1],
                    "point": self.candidates[best[0]].spec()}}


class BatchProposer(Proposer):
    """The batch machine of the budgeted proposers.

    Owns the encoded candidates, the seeded random initial batch, budget
    accounting (:func:`default_max_evals` unless ``max_evals`` is given)
    and the ranking of the unproposed candidates by :meth:`_scores`, the
    acquisition values a subclass computes once observations exist.
    """

    def __init__(self, space: DesignSpace, *, seed: int, metric: str,
                 batch_size: int, max_evals: Optional[int],
                 surrogate: str) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        super().__init__(space, seed=seed, metric=metric)
        self.batch_size = batch_size
        if max_evals is None:
            max_evals = default_max_evals(self.name, space.size, batch_size)
        self.max_evals = min(max_evals, len(self.candidates))
        if self.max_evals < 1:
            raise ValueError("max_evals must allow at least one evaluation")
        self.surrogate_name = surrogate
        self._encoder = PointEncoder(space)
        self._features = [self._encoder.encode(point)
                          for point in self.candidates]
        self._rng = random.Random(seed)
        self._observed: Dict[int, object] = {}
        self._proposed: set = set()
        self._batches = 0

    def spec(self) -> Dict[str, object]:
        """JSON-safe constructor spec (what :func:`make_proposer` takes)."""

        return {"name": self.name, "seed": self.seed,
                "batch_size": self.batch_size, "max_evals": self.max_evals,
                "surrogate": self.surrogate_name}

    @property
    def evaluations(self) -> int:
        return len(self._proposed)

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
        raise NotImplementedError  # pragma: no cover - interface

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        """A report row describing one ingested batch."""

        return {"batch": batch.number, "proposed": len(batch.keys),
                "evaluations": self.evaluations}


class BayesProposer(BatchProposer):
    """Batch Bayesian optimization over a design space.

    Parameters
    ----------
    space, seed, metric:
        What is optimised.  The metric names the objective whose values
        :meth:`values` reads off evaluated records (higher is better, as
        produced by :func:`repro.dse.pareto.objective_value`).
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

    name = "bayes"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", batch_size: int = 4,
                 max_evals: Optional[int] = None, surrogate: str = "rff",
                 acquisition: str = "ei", ucb_beta: float = 2.0) -> None:
        super().__init__(space, seed=seed, metric=metric,
                         batch_size=batch_size, max_evals=max_evals,
                         surrogate=surrogate)
        if acquisition not in ACQUISITIONS:
            raise ValueError(f"unknown acquisition {acquisition!r}; "
                             f"expected one of {ACQUISITIONS}")
        self.acquisition = acquisition
        self.ucb_beta = ucb_beta
        self._surrogate = make_surrogate(surrogate, self._encoder.dim,
                                         seed=seed)

    def spec(self) -> Dict[str, object]:
        return dict(super().spec(), metric=self.metric,
                    acquisition=self.acquisition, ucb_beta=self.ucb_beta)

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

    def _ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        for key, value in zip(batch.keys, values):
            self._observed[key] = float(value)
            self._surrogate.observe(self._features[key], float(value))

    def best(self) -> Optional[Tuple[int, float]]:
        """``(candidate index, value)`` of the best observation (ties: earliest)."""

        if not self._observed:
            return None
        best_key = min(self._observed,
                       key=lambda key: (-self._observed[key], key))
        return best_key, self._observed[best_key]

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        best = self.best()
        return dict(super().trace_entry(batch),
                    best=None if best is None else best[1])


class AdaptiveHalvingProposer(Proposer):
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

    name = "adaptive-halving"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", proxy_qubits: int = 12,
                 surrogate: str = "trees", min_survivors: int = 1,
                 ucb_beta: float = 1.0) -> None:
        if proxy_qubits < 8:
            raise ValueError("proxy_qubits must be at least 8 "
                             "(the smallest scaled suite)")
        if min_survivors < 1:
            raise ValueError("min_survivors must be positive")
        super().__init__(space, seed=seed, metric=metric)
        self.proxy_qubits = proxy_qubits
        self.surrogate_name = surrogate
        self.min_survivors = min_survivors
        self.ucb_beta = ucb_beta
        # The proxy ladder only makes sense below the true size: the
        # smallest candidate's, as in SuccessiveHalving.  None is the
        # application's default size (64-78 qubits).
        sizes = [qubits for qubits in space.qubits if qubits is not None]
        if len(sizes) < len(space.qubits):
            from repro.apps.suite import build_application

            sizes += [build_application(app).num_qubits for app in space.apps]
        self._size_cap = min(sizes)
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
            "name": self.name,
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
        return (len(self._survivors) <= self.min_survivors
                or self._size >= self._size_cap)

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

    def _ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        scores = dict(zip(batch.keys, (float(v) for v in values)))
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


def make_proposer(space: DesignSpace, spec: Dict[str, object]) -> Proposer:
    """The one proposer factory: build any adaptive strategy's proposer
    from its spec (a dispatch manifest's ``strategy`` entry less
    ``parts``, or a proposer's own :meth:`spec`).

    Its table covers the scalar proposers here and the multi-objective
    ones of :mod:`repro.dse.moo.propose` (``ehvi``, ``parego``).
    """

    from repro.dse.moo.propose import EHVIProposer, ParEGOProposer

    table = {cls.name: cls for cls in (BayesProposer, AdaptiveHalvingProposer,
                                       EHVIProposer, ParEGOProposer)}
    spec = dict(spec)
    name = spec.pop("name", None)
    if name not in table:
        raise ValueError(f"unknown adaptive strategy {name!r}; expected one "
                         f"of {tuple(table)}")
    return table[name](space, **spec)
