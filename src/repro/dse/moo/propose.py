"""Multi-objective batch proposers: EHVI and Chebyshev scalarization.

Both proposers run on the batch machine of
:mod:`repro.dse.adaptive.propose` (:class:`BatchProposer`: seeded first
batch, budget, metered ``next_batch()`` / ``ingest()``), so they run
unchanged through :class:`~repro.dse.runner.DSERunner` and the distributed
proposal ledger (``dse dispatch``, or ``dse run --jobs N``).  What they add is that their
``values()`` are *objective vectors*
(:func:`~repro.dse.moo.objectives.objective_vector`) instead of scalars,
and that ``frontier()`` exposes the current Pareto archive.

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

from repro.dse.adaptive.model import make_surrogate
from repro.dse.adaptive.propose import (
    BatchProposer,
    ProposalBatch,
    expected_improvement,
)
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
from repro.dse.space import DesignSpace

#: Default objective pair: the paper's headline trade-off (Figures 6-8).
DEFAULT_OBJECTIVES = ("fidelity", "runtime")


class _MOOProposer(BatchProposer):
    """What the multi-objective proposers add to the batch machine.

    Vector bookkeeping and the Pareto archive; the ingested values are
    objective vectors, and the rows and the complete marker record the
    objective list (and the marker the archive).  Subclasses implement
    :meth:`_scores` (acquisition values for the unproposed candidates once
    observations exist).
    """

    def __init__(self, space: DesignSpace, *, seed: int = 0,
                 objectives=DEFAULT_OBJECTIVES, batch_size: int = 4,
                 max_evals: Optional[int] = None,
                 surrogate: str = "rff") -> None:
        self.objectives = parse_objectives(objectives)
        # best() and the proposer meta report on the first objective.
        super().__init__(space, seed=seed, metric=self.objectives[0],
                         batch_size=batch_size, max_evals=max_evals,
                         surrogate=surrogate)
        self._archive = ParetoArchive(len(self.objectives))

    def spec(self) -> Dict[str, object]:
        return dict(super().spec(), objectives=list(self.objectives))

    def values(self, records: Sequence[object]) -> List[Tuple[float, ...]]:
        """Each record's :func:`~repro.dse.moo.objectives.objective_vector`."""

        return [objective_vector(record, self.objectives)
                for record in records]

    def stamp(self) -> Dict[str, object]:
        return dict(super().stamp(), objectives=list(self.objectives))

    def _ingest(self, batch: ProposalBatch,
                values: Sequence[Sequence[float]]) -> None:
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

    def outcome(self) -> Dict[str, object]:
        """The scalar outcome plus the objective list and the archive (key,
        canonical objective values, point spec), so the frontier of a
        finished dispatched run is readable without a proposer."""

        return dict(super().outcome(), objectives=list(self.objectives),
                    frontier=[{"key": key, "values": list(vector),
                               "point": self.candidates[key].spec()}
                              for key, vector in self.frontier()])

    def hypervolume(self) -> float:
        """Normalised hypervolume of the observed set (0 when empty)."""

        if not self._observed:
            return 0.0
        bounds = vector_bounds(self._observed.values())
        return normalised_hypervolume(self._archive.vectors(), bounds)

    def trace_entry(self, batch: ProposalBatch) -> Dict[str, object]:
        return dict(super().trace_entry(batch), frontier=len(self._archive),
                    hypervolume=self.hypervolume())


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

    name = "ehvi"

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

    name = "parego"

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
