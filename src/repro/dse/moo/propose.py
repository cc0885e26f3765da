"""Multi-objective batch proposers: EHVI and Chebyshev scalarization.

Both proposers speak the exact propose/evaluate contract of
:mod:`repro.dse.adaptive.propose` -- ``next_batch()`` / ``ingest()`` /
``best()`` / ``spec()`` -- so they run unchanged through
:class:`~repro.dse.runner.DSERunner`, ``--jobs N`` worker pools and the
distributed proposal ledger.  The one extension is that ``ingest`` receives
*objective vectors* (tuples produced by
:func:`~repro.dse.moo.objectives.objective_vector`) instead of scalars, and
a :meth:`frontier` method exposes the current Pareto archive.

* :class:`EHVIProposer` (``--strategy ehvi``) -- one PR 4 surrogate per
  objective.  A candidate's acquisition score is its expected hypervolume
  improvement: the mean, over a small seeded Gaussian sample of the
  surrogates' predictive distributions, of the hypervolume the sampled
  vector would add to the current normalised archive.
* :class:`ParEGOProposer` (``--strategy parego``) -- the cheap baseline:
  each batch draws a seeded random weight vector, collapses the observed
  vectors through the augmented Chebyshev scalarization, fits one fresh
  surrogate on the scalar landscape and proposes the top
  expected-improvement candidates.

Proposals are a pure function of (space, objectives, seed, ingested
vectors): evaluation is deterministic, every random draw comes from a
``random.Random`` seeded by (seed, batch number), candidates are visited in
sorted key order, and ties break towards the lower key.  Any executor --
serial, ``--jobs N``, or a worker fleet with kills on either side --
therefore reproduces the identical proposal sequence and archive, and a
restarted proposer replays its history from the store rows alone (the
schema-v3 provenance rows record which strategy/seed asked for each point).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.adaptive.model import PointEncoder, make_surrogate
from repro.dse.adaptive.propose import ProposalBatch, expected_improvement
from repro.dse.moo.archive import ParetoArchive
from repro.dse.moo.hypervolume import (
    REFERENCE_OFFSET,
    hypervolume_improvement,
    normalised_hypervolume,
)
from repro.dse.moo.objectives import (
    normalise,
    objective_vector,
    parse_objectives,
    vector_bounds,
)
from repro.dse.space import DesignPoint, DesignSpace

#: Strategy names implemented here (mirrored in STRATEGY_NAMES).
MOO_PROPOSER_NAMES = ("ehvi", "parego")

#: Default objective pair: the paper's headline trade-off (Figures 6-8).
DEFAULT_OBJECTIVES = ("fidelity", "runtime")


def default_moo_max_evals(space_size: int, batch_size: int = 4) -> int:
    """The multi-objective budget when none is given: half the grid.

    Frontier recovery needs more evaluations than best-point search (a
    frontier has many members), so the default is half the grid rather
    than the scalar strategies' quarter -- floored at two batches, capped
    at the grid itself.  Shared with
    :func:`~repro.dse.dispatch.write_manifest`, which records it so the
    fleet view plans a run's points without constructing a proposer.
    """

    return min(max(2 * batch_size, space_size // 2), space_size)


class _MOOProposer:
    """Shared state machine of the multi-objective proposers.

    Owns candidate enumeration, the seeded random initial batch, budget
    accounting, vector bookkeeping and the Pareto archive; subclasses
    implement :meth:`_scores` (acquisition values for the unproposed
    candidates once observations exist).
    """

    strategy_name = "moo"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 objectives=DEFAULT_OBJECTIVES, batch_size: int = 4,
                 max_evals: Optional[int] = None,
                 surrogate: str = "rff") -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        self.space = space
        self.seed = seed
        self.objectives = parse_objectives(objectives)
        #: Scalar objective the generic tooling reports on (`best()` and the
        #: proposer meta): the first named objective.
        self.metric = self.objectives[0]
        self.batch_size = batch_size
        self.candidates: List[DesignPoint] = list(space.points())
        if max_evals is None:
            max_evals = default_moo_max_evals(space.size, batch_size)
        self.max_evals = min(max_evals, len(self.candidates))
        if self.max_evals < 1:
            raise ValueError("max_evals must allow at least one evaluation")
        self.surrogate_name = surrogate
        self._encoder = PointEncoder(space)
        self._features = [self._encoder.encode(point)
                          for point in self.candidates]
        self._rng = random.Random(seed)
        self._observed: Dict[int, Tuple[float, ...]] = {}
        self._archive = ParetoArchive(len(self.objectives))
        self._proposed: set = set()
        self._batches = 0

    # ------------------------------------------------------------------ #
    def spec(self) -> Dict[str, object]:
        """JSON-safe constructor spec (the manifest's ``strategy`` entry)."""

        return {
            "name": self.strategy_name,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "batch_size": self.batch_size,
            "max_evals": self.max_evals,
            "surrogate": self.surrogate_name,
        }

    @property
    def evaluations(self) -> int:
        return len(self._proposed)

    def next_batch(self) -> Optional[ProposalBatch]:
        """The next batch to evaluate, or ``None`` when the budget is spent."""

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

    def ingest(self, batch: ProposalBatch,
               values: Sequence[Sequence[float]]) -> None:
        """Fold one evaluated batch back in (objective vectors, batch order)."""

        if len(values) != len(batch.keys):
            raise ValueError(f"batch {batch.number} has {len(batch.keys)} "
                             f"points but {len(values)} values")
        for key, vector in zip(batch.keys, values):
            vector = tuple(float(v) for v in vector)
            if len(vector) != len(self.objectives):
                raise ValueError(
                    f"batch {batch.number}: expected "
                    f"{len(self.objectives)}-D vectors "
                    f"({', '.join(self.objectives)}), got {len(vector)}-D")
            self._observed[key] = vector
            self._archive.add(key, vector)
            self._observe(key, vector)

    def _observe(self, key: int, vector: Tuple[float, ...]) -> None:
        """Model update hook; the archive/bookkeeping is already done."""

    # ------------------------------------------------------------------ #
    def best(self) -> Optional[Tuple[int, float]]:
        """``(candidate index, value)`` best under the *first* objective.

        The scalar view the generic tooling (complete marker, ``dse
        dispatch`` summary) reports; the full multi-objective answer is
        :meth:`frontier`.  Ties break to the earliest key.
        """

        if not self._observed:
            return None
        best_key = min(self._observed,
                       key=lambda key: (-self._observed[key][0], key))
        return best_key, self._observed[best_key][0]

    def frontier(self) -> List[Tuple[int, Tuple[float, ...]]]:
        """The archive: non-dominated ``(key, vector)`` pairs, key order."""

        return self._archive.items()

    def hypervolume(self) -> float:
        """Normalised hypervolume of the observed set (0 when empty)."""

        if not self._observed:
            return 0.0
        bounds = vector_bounds(self._observed.values())
        return normalised_hypervolume(self._archive.vectors(), bounds)

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        """A report row describing one ingested batch."""

        return {"batch": batch.number, "proposed": len(batch.keys),
                "evaluations": self.evaluations,
                "frontier": len(self._archive),
                "hypervolume": self.hypervolume()}


class EHVIProposer(_MOOProposer):
    """Expected-hypervolume-improvement batch proposer.

    One surrogate per objective (seeded independently, so ``rff`` feature
    maps differ across objectives) learns the raw objective landscape.
    Scoring normalises predictions into the observed min-max box and takes
    a seeded ``samples``-draw Monte-Carlo estimate of the hypervolume each
    candidate would add to the archive.  The sample draw is a pure function
    of (seed, batch number, candidate visit order), so the acquisition --
    and with it the whole proposal sequence -- is deterministic.
    """

    strategy_name = "ehvi"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 objectives=DEFAULT_OBJECTIVES, batch_size: int = 4,
                 max_evals: Optional[int] = None, surrogate: str = "rff",
                 samples: int = 16) -> None:
        super().__init__(space, seed=seed, objectives=objectives,
                         batch_size=batch_size, max_evals=max_evals,
                         surrogate=surrogate)
        if samples < 1:
            raise ValueError("samples must be a positive integer")
        self.samples = samples
        self._surrogates = [
            make_surrogate(surrogate, self._encoder.dim,
                           seed=seed * 131 + index)
            for index in range(len(self.objectives))
        ]

    def spec(self) -> Dict[str, object]:
        payload = super().spec()
        payload["samples"] = self.samples
        return payload

    def _observe(self, key: int, vector: Tuple[float, ...]) -> None:
        features = self._features[key]
        for surrogate, value in zip(self._surrogates, vector):
            surrogate.observe(features, value)

    def _scores(self, unproposed: Sequence[int]) -> List[float]:
        bounds = vector_bounds(self._observed.values())
        archive = [normalise(vector, bounds)
                   for vector in self._archive.vectors()]
        reference = (-REFERENCE_OFFSET,) * len(self.objectives)
        rng = random.Random(self.seed * 65537 + self._batches * 257)
        scores = []
        for index in unproposed:  # ascending by construction (next_batch)
            predictions = [surrogate.predict(self._features[index])
                           for surrogate in self._surrogates]
            total = 0.0
            for _ in range(self.samples):
                sampled = tuple(rng.gauss(mean, std) if std > 0 else mean
                                for mean, std in predictions)
                # Exclusive contribution against the (fixed, already
                # non-dominated) archive: the archive itself is clipped
                # into the sample's box, never re-filtered.
                total += hypervolume_improvement(
                    archive, normalise(sampled, bounds), reference)
            scores.append(total / self.samples)
        return scores


class ParEGOProposer(_MOOProposer):
    """Random-weight Chebyshev scalarization (the ParEGO baseline).

    Every guided batch draws one weight vector from the unit simplex,
    collapses each observed objective vector ``v`` (min-max normalised)
    to ``min_i(w_i v_i) + rho * sum_i(w_i v_i)``, fits a fresh surrogate
    on the scalarised landscape in sorted key order, and proposes the
    candidates with the highest expected improvement.  Rotating weights
    sweep the frontier one scalar problem at a time -- far cheaper than
    EHVI per batch, at the cost of frontier coverage per evaluation.
    """

    strategy_name = "parego"

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 objectives=DEFAULT_OBJECTIVES, batch_size: int = 4,
                 max_evals: Optional[int] = None, surrogate: str = "rff",
                 rho: float = 0.05) -> None:
        super().__init__(space, seed=seed, objectives=objectives,
                         batch_size=batch_size, max_evals=max_evals,
                         surrogate=surrogate)
        if rho < 0:
            raise ValueError("rho must be non-negative")
        self.rho = rho

    def spec(self) -> Dict[str, object]:
        payload = super().spec()
        payload["rho"] = self.rho
        return payload

    def _weights(self) -> Tuple[float, ...]:
        """The batch's scalarization weights (seeded, simplex-uniform)."""

        rng = random.Random(self.seed * 8191 + self._batches * 127)
        draws = [-_log_guard(rng.random()) for _ in self.objectives]
        total = sum(draws)
        return tuple(draw / total for draw in draws)

    def _scalarise(self, vector: Tuple[float, ...],
                   weights: Tuple[float, ...],
                   bounds) -> float:
        scaled = [w * v for w, v in zip(weights, normalise(vector, bounds))]
        return min(scaled) + self.rho * sum(scaled)

    def _scores(self, unproposed: Sequence[int]) -> List[float]:
        bounds = vector_bounds(self._observed.values())
        weights = self._weights()
        surrogate = make_surrogate(
            self.surrogate_name, self._encoder.dim,
            seed=self.seed * 31 + self._batches)
        best = None
        for key in sorted(self._observed):  # deterministic fit order
            value = self._scalarise(self._observed[key], weights, bounds)
            surrogate.observe(self._features[key], value)
            best = value if best is None else max(best, value)
        scores = []
        for index in unproposed:
            mean, std = surrogate.predict(self._features[index])
            scores.append(expected_improvement(mean, std, best))
        return scores


def _log_guard(value: float) -> float:
    """``log`` clamped away from zero (simplex sampling never sees 0.0)."""

    import math

    return math.log(max(value, 1e-12))


def make_moo_proposer(space: DesignSpace, spec: Dict[str, object]):
    """Build a multi-objective proposer from a manifest/strategy spec."""

    spec = dict(spec)
    name = spec.pop("name", None)
    if name == "ehvi":
        return EHVIProposer(space, **spec)
    if name == "parego":
        return ParEGOProposer(space, **spec)
    raise ValueError(f"unknown multi-objective strategy {name!r}; "
                     f"expected one of {MOO_PROPOSER_NAMES}")
