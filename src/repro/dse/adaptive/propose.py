"""The proposers of every search strategy but the grid, their one factory
and one budget rule.

A *proposer* owns the decision side of a search: it enumerates the
candidate points of a :class:`~repro.dse.space.DesignSpace` once, then
alternates ``next_batch()`` (which points to evaluate next) with
``ingest()`` (fold the batch's :meth:`~Proposer.values` back in).
Crucially, the proposal sequence is a pure function of (space, seed,
ingested values): evaluation results are deterministic, so any executor --
serial, ``--jobs N``, or a fleet of workers leasing batches off the
proposal ledger -- reproduces the identical sequence and best point, and a
restarted proposer regenerates its own history from the ledger.

Every strategy but the grid *is* its proposer spec: the ``strategy`` entry
of a dispatch manifest (``{"name": "bayes", "seed": 0, ...}``), which
:func:`make_proposer` turns into a proposer and :func:`default_max_evals`
gives its default budget.

* :class:`Proposer` -- what every proposer shares: the candidates, metered
  ``next_batch``/``ingest``, the values it ingests, the provenance stamp
  of the rows it asks for, and the outcome its complete marker records.
* :class:`RandomProposer` -- ``random``: one seeded batch of ``samples``
  points, in enumeration order.
* :class:`GreedyProposer` -- ``greedy``: coordinate descent, a seeded start
  point and then one batch per axis sweep.
* :class:`BatchProposer` -- the batch machine of the budgeted proposers
  (``bayes`` here, ``ehvi`` and ``parego`` in
  :mod:`repro.dse.moo.propose`): a seeded random first batch, then the top
  acquisition scorers, within an evaluation budget.
* :class:`BayesProposer` -- classic batch Bayesian optimization: expected
  improvement under one surrogate model.
* :class:`HalvingProposer` -- ``halving``: the scaled-proxy ladder, one
  batch per rung, each proxy rung promoting its best-ranked half.
* :class:`AdaptiveHalvingProposer` -- ``adaptive-halving``: the same
  ladder, but only the candidates whose surrogate upper confidence bound
  reaches the rung's best observed score may compete for promotion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.adaptive.model import PointEncoder, make_surrogate
from repro.dse.pareto import objective_value
from repro.dse.space import AXES, DesignPoint, DesignSpace
from repro.obs.metrics import registry as _metrics_registry

#: The default budget of each budgeted strategy, as the share of the grid
#: it evaluates: best-point search a quarter, frontier search half (a
#: frontier has many members).  The other strategies size themselves.
GRID_SHARE = {"bayes": 4, "ehvi": 2, "parego": 2}

#: The most axis-sweep rounds a greedy climb runs.
MAX_ROUNDS = 10

#: The confidence width of adaptive-halving's promotion filter: a
#: candidate competes when its surrogate's ``mean + UCB_BETA * std``
#: reaches the rung's best observed score.
UCB_BETA = 1.0

#: The fewest candidates a proxy rung of the halving ladder promotes.
MIN_SURVIVORS = 1


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


def upper_confidence_bound(mean: float, std: float, beta: float) -> float:
    """Optimism-in-the-face-of-uncertainty score ``mean + beta * std``."""

    return mean + beta * std


def _best_of(scores: Dict[int, float]) -> Optional[Tuple[int, float]]:
    """``(key, value)`` of the highest score (ties: the earliest key)."""

    if not scores:
        return None
    best_key = min(scores, key=lambda key: (-scores[key], key))
    return best_key, scores[best_key]


def default_max_evals(name: str, space_size: int,
                      batch_size: int = 4) -> Optional[int]:
    """The one budget rule: strategy ``name``'s evaluation budget when its
    spec gives no ``max_evals``.

    Its :data:`GRID_SHARE` of the grid, floored at two batches and capped
    at the grid itself; ``None`` for a strategy without a budget share
    (``random`` draws its ``samples``, ``greedy`` and the ladders size
    themselves).  The budgeted proposers default to it, and
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


class RandomProposer(Proposer):
    """Seeded random sampling: one batch of ``samples`` points.

    The points are drawn without replacement and evaluated in enumeration
    order, so the batch is a sub-grid whose gate variants share their
    compilations.
    """

    name = "random"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", samples: int) -> None:
        if samples < 1:
            raise ValueError("samples must be a positive integer")
        super().__init__(space, seed=seed, metric=metric)
        self.samples = samples
        self._scores: Dict[int, float] = {}
        self._proposed = False

    @property
    def evaluations(self) -> int:
        return len(self._scores)

    def _next_batch(self) -> Optional[ProposalBatch]:
        if self._proposed:
            return None
        self._proposed = True
        count = min(self.samples, len(self.candidates))
        keys = sorted(random.Random(self.seed).sample(
            range(len(self.candidates)), count))
        return ProposalBatch(number=1, keys=tuple(keys), points=tuple(
            self.candidates[key] for key in keys))

    def _ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        self._scores = dict(zip(batch.keys, (float(v) for v in values)))

    def best(self) -> Optional[Tuple[int, float]]:
        return _best_of(self._scores)

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        return {"round": 0, "sampled": len(batch.keys),
                "of": len(self.candidates)}


class GreedyProposer(Proposer):
    """Greedy coordinate descent: optimise one axis at a time until converged.

    The first batch is a seeded start point.  Each round then sweeps the
    axes with more than one value, in :data:`~repro.dse.space.AXES` order,
    one batch per axis: every value of the axis, the other coordinates
    fixed.  The climb moves to the sweep's best point (the first on ties)
    when it beats the current one, and ends after a round that moves
    nothing, or after :data:`MAX_ROUNDS` rounds.  Points evaluated before
    replay from the store, so the climb costs far fewer simulations than
    the grid whenever axes interact weakly.  :meth:`best` is the climb's
    endpoint, not a re-scan of every batch.
    """

    name = "greedy"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity") -> None:
        super().__init__(space, seed=seed, metric=metric)
        self._key_of = {point: key
                        for key, point in enumerate(self.candidates)}
        rng = random.Random(seed)
        self._coords = {axis: rng.choice(space.axis_values(axis))
                        for axis in AXES}
        self._axes = [axis for axis in AXES
                      if len(space.axis_values(axis)) > 1]
        #: ``(key, value)`` of the climb's current point.
        self._current: Optional[Tuple[int, float]] = None
        self._round = 0
        self._step = 0  # the next sweep's index into _axes
        self._moved = False
        self._batches = 0
        self._evaluations = 0
        self._entry: Dict[str, object] = {}

    @property
    def evaluations(self) -> int:
        return self._evaluations

    def _sweep(self, axis: str) -> List[int]:
        return [self._key_of[self.space.point_for(dict(self._coords,
                                                       **{axis: value}))]
                for value in self.space.axis_values(axis)]

    def _next_batch(self) -> Optional[ProposalBatch]:
        if self._current is None:
            keys = [self._key_of[self.space.point_for(self._coords)]]
        else:
            if self._step == len(self._axes):
                if not self._moved or self._round + 1 == MAX_ROUNDS:
                    return None
                self._round += 1
                self._step = 0
                self._moved = False
            keys = self._sweep(self._axes[self._step])
        self._batches += 1
        return ProposalBatch(
            number=self._batches, keys=tuple(keys),
            points=tuple(self.candidates[key] for key in keys))

    def _ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        values = [float(value) for value in values]
        self._evaluations += len(values)
        if self._current is None:
            self._current = (batch.keys[0], values[0])
            self._entry = {"round": 0, "axis": None, "value": None,
                           "score": values[0]}
            return
        axis = self._axes[self._step]
        best = max(range(len(values)), key=values.__getitem__)
        value = self.space.axis_values(axis)[best]
        if value != self._coords[axis] and values[best] > self._current[1]:
            self._coords[axis] = value
            self._current = (batch.keys[best], values[best])
            self._moved = True
        self._entry = {"round": self._round, "axis": axis,
                       "value": self._coords[axis],
                       "score": self._current[1]}
        self._step += 1

    def best(self) -> Optional[Tuple[int, float]]:
        return self._current

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        return self._entry


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

    Guided batches take the unproposed candidates of highest expected
    improvement over the best observation.
    """

    name = "bayes"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", batch_size: int = 4,
                 max_evals: Optional[int] = None,
                 surrogate: str = "rff") -> None:
        super().__init__(space, seed=seed, metric=metric,
                         batch_size=batch_size, max_evals=max_evals,
                         surrogate=surrogate)
        self._surrogate = make_surrogate(surrogate, self._encoder.dim,
                                         seed=seed)

    def _scores(self, unproposed: Sequence[int]) -> List[float]:
        best = max(self._observed.values())
        scores = []
        for index in unproposed:
            mean, std = self._surrogate.predict(self._features[index])
            scores.append(expected_improvement(mean, std, best))
        return scores

    def _ingest(self, batch: ProposalBatch, values: Sequence[float]) -> None:
        for key, value in zip(batch.keys, values):
            self._observed[key] = float(value)
            self._surrogate.observe(self._features[key], float(value))

    def best(self) -> Optional[Tuple[int, float]]:
        """``(candidate index, value)`` of the best observation (ties: earliest)."""

        return _best_of(self._observed)

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        best = self.best()
        return dict(super().trace_entry(batch),
                    best=None if best is None else best[1])


class HalvingProposer(Proposer):
    """Successive halving up a scaled-proxy ladder.

    Rung ``r`` evaluates the surviving candidates with their applications
    rebuilt at ``proxy_qubits * 2**r`` qubits (a structurally identical
    small-suite instance), while that is below the smallest candidate's
    true size.  Each proxy rung promotes its best-scoring contenders
    (ties: the earliest key): at most half the rung, so progress is
    guaranteed, and at least :data:`MIN_SURVIVORS`, refilled from its
    ranking.  Every candidate contends here, which is successive halving
    with ``eta = 2``; :class:`AdaptiveHalvingProposer` narrows the
    contenders (:meth:`_contenders`).  The last rung runs the survivors at
    the space's true size, and :meth:`best` is the best of them.  Proxy
    evaluations are ordinary design points, so they persist in the store
    and are shared across strategies and reruns.
    """

    name = "halving"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", proxy_qubits: int = 12) -> None:
        if proxy_qubits < 8:
            raise ValueError("proxy_qubits must be at least 8 "
                             "(the smallest scaled suite)")
        super().__init__(space, seed=seed, metric=metric)
        self.proxy_qubits = proxy_qubits
        # The proxy ladder only makes sense below the true size: the
        # smallest candidate's.  None is the application's default size
        # (64-78 qubits).
        sizes = [qubits for qubits in space.qubits if qubits is not None]
        if len(sizes) < len(space.qubits):
            from repro.apps.suite import build_application

            sizes += [build_application(app).num_qubits for app in space.apps]
        self._size_cap = min(sizes)
        self._survivors = list(range(len(self.candidates)))
        self._rung = 0
        self._size = proxy_qubits
        self._final_scores: Optional[Dict[int, float]] = None
        self._batches = 0
        self._done = False
        self.trace: List[Dict[str, object]] = []

    @property
    def evaluations(self) -> int:
        return sum(entry["proposed"] for entry in self.trace)

    def _at_final_rung(self) -> bool:
        return (len(self._survivors) <= MIN_SURVIVORS
                or self._size >= self._size_cap)

    def _next_batch(self) -> Optional[ProposalBatch]:
        if self._done:
            return None
        self._batches += 1
        final = self._at_final_rung()
        return ProposalBatch(
            number=self._batches,
            keys=tuple(self._survivors),
            points=tuple(self.candidates[key] if final
                         else self.candidates[key].with_qubits(self._size)
                         for key in self._survivors),
            rung=self._rung,
            proxy_qubits=None if final else self._size,
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

    def _contenders(self, batch: ProposalBatch,
                    scores: Dict[int, float]) -> Sequence[int]:
        """The keys of a proxy rung that may compete for promotion."""

        return batch.keys

    def _promote(self, batch: ProposalBatch,
                 scores: Dict[int, float]) -> List[int]:
        """Survivor selection for one proxy rung."""

        contenders = set(self._contenders(batch, scores))
        # Rank the contenders by observed score (the rule above chose who
        # *may* win; the rung's data orders them), then bound the count: at
        # most half the rung (guaranteed progress), at least MIN_SURVIVORS
        # (never eliminate everyone on model overconfidence).
        cap = max(MIN_SURVIVORS, math.ceil(len(batch.keys) / 2))
        ranked = sorted(batch.keys, key=lambda key: (-scores[key], key))
        chosen = [key for key in ranked if key in contenders][:cap]
        for key in ranked:  # refill to the floor from the rung ranking
            if len(chosen) >= MIN_SURVIVORS:
                break
            if key not in chosen:
                chosen.append(key)
        return sorted(chosen)

    def best(self) -> Optional[Tuple[int, float]]:
        """Best *full-scale* candidate (ties: earliest); None before the end."""

        return _best_of(self._final_scores)

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        return dict(self.trace[-1], batch=batch.number) if self.trace else {}


class AdaptiveHalvingProposer(HalvingProposer):
    """The halving ladder with surrogate-ranked promotion.

    After each proxy rung a fresh surrogate is fit on the rung's scores,
    and only the candidates whose upper confidence bound reaches the rung's
    best observed score may compete for promotion -- so the survivor count
    adapts to how separable the rung's results are (a clear leader
    eliminates aggressively, a noisy rung keeps contenders) instead of a
    fixed half.  The ladder's cap and floor still bound it.
    """

    name = "adaptive-halving"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 metric: str = "fidelity", proxy_qubits: int = 12,
                 surrogate: str = "trees") -> None:
        super().__init__(space, seed=seed, metric=metric,
                         proxy_qubits=proxy_qubits)
        self.surrogate_name = surrogate
        self._encoder = PointEncoder(space)

    def _contenders(self, batch: ProposalBatch,
                    scores: Dict[int, float]) -> Sequence[int]:
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
            bound = upper_confidence_bound(mean, std, UCB_BETA)
            if bound >= best_observed - 1e-12:
                optimistic.append(key)
        return optimistic


def make_proposer(space: DesignSpace, spec: Dict[str, object]) -> Proposer:
    """The one proposer factory: build the proposer of any strategy but
    the grid from its spec (a dispatch manifest's ``strategy`` entry less
    ``parts``, or a :class:`~repro.dse.strategies.ProposerStrategy`'s
    ``spec``).

    Its table covers the scalar proposers here and the multi-objective
    ones of :mod:`repro.dse.moo.propose` (``ehvi``, ``parego``), in the
    order of :data:`~repro.dse.strategies.STRATEGY_NAMES`.
    """

    from repro.dse.moo.propose import EHVIProposer, ParEGOProposer

    table = {cls.name: cls for cls in (
        RandomProposer, GreedyProposer, HalvingProposer, BayesProposer,
        AdaptiveHalvingProposer, EHVIProposer, ParEGOProposer)}
    spec = dict(spec)
    name = spec.pop("name", None)
    if name not in table:
        raise ValueError(f"unknown adaptive strategy {name!r}; expected one "
                         f"of {tuple(table)}")
    return table[name](space, **spec)
