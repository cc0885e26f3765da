"""Pluggable search strategies over a design space.

Each strategy decides *which* points to evaluate (and in what order); the
:class:`~repro.dse.runner.DSERunner` decides *how* (store replay, gate
fan-out, worker pool, sharding).  All strategies are deterministic under a
fixed seed: randomness comes only from ``random.Random(seed)``, evaluation
results are independent of ``jobs``, and every tie breaks towards the
earlier candidate, so the same (space, strategy, seed) always explores the
same points and reports the same best.

* :class:`ExhaustiveGrid` -- every point, in enumeration order (the paper's
  figure sweeps; shardable).
* :class:`RandomSampling` -- a seeded subset of the grid (shardable).
* :class:`CoordinateDescent` -- greedy hill-climb: sweep one axis at a time
  from a seeded start, move to the best neighbour, repeat until a full round
  makes no progress.
* :class:`SuccessiveHalving` -- rank all candidates on a cheap scaled-down
  proxy suite, keep the top ``1/eta``, grow the proxy, and only evaluate the
  survivors at full scale.
* :class:`ProposerStrategy` -- the four adaptive strategies, each one
  proposer spec (:mod:`repro.dse.adaptive.propose`) driven in-process:

  - ``bayes`` -- surrogate-guided batch search: seeded random
    initialisation, then expected-improvement/UCB batches under an
    incremental surrogate model, within a budget of a quarter of the grid;
  - ``adaptive-halving`` -- the multi-fidelity proxy ladder with
    surrogate-ranked promotion instead of a fixed eta;
  - ``ehvi`` / ``parego`` -- multi-objective frontier search
    (:mod:`repro.dse.moo`): expected-hypervolume-improvement over one
    surrogate per objective, and the seeded random-weight Chebyshev
    scalarization baseline, within a budget of half the grid.  Both
    optimise a named *objective vector* (``--objectives
    fidelity,runtime``) and report the Pareto archive next to the scalar
    best.

Every strategy stamps its provenance (name, seed, multi-fidelity rung) into
the rows it persists (schema v3), so ``dse status --by-strategy`` can
attribute stored points.  The adaptive strategies can additionally run
distributed through the propose/evaluate ledger (``repro dse dispatch
--strategy bayes``, with the same spec in the manifest); the proposal
sequence is identical either way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dse.pareto import OBJECTIVES, best_record, objective_value
from repro.dse.space import AXES

#: CLI names of the built-in strategies.  The last four are adaptive: each
#: is a :class:`ProposerStrategy` whose proposer
#: :func:`~repro.dse.adaptive.propose.make_proposer` builds by name.
STRATEGY_NAMES = ("grid", "random", "greedy", "halving", "bayes",
                  "adaptive-halving", "ehvi", "parego")

#: The multi-objective members of the family (vector-valued ingest).
MOO_STRATEGY_NAMES = ("ehvi", "parego")


@dataclass
class StrategyResult:
    """Outcome of one exploration run."""

    #: Name of the strategy that produced the result.
    strategy: str
    #: Every record evaluated (or replayed), in exploration order.
    records: List[object]
    #: The best record under the strategy's objective (None if all points
    #: belonged to other shards).
    best: Optional[object]
    #: Per-round trace (strategy-specific dictionaries, for reports).
    trace: List[Dict[str, object]] = field(default_factory=list)
    #: Pareto-archive records of a multi-objective run (stable candidate-key
    #: order); None for the scalar strategies.
    frontier: Optional[List[object]] = None

    @property
    def evaluated(self) -> List[object]:
        """Records excluding shard-foreign placeholders."""

        return [record for record in self.records if record is not None]


class Strategy:
    """Base class: a name, shardability, and a :meth:`run` over a runner."""

    name = "base"
    #: Whether the strategy's point set is independent of earlier results
    #: (only then can shards partition the work without seeing each other's
    #: evaluations).
    shardable = False

    def __init__(self, metric: str = "fidelity") -> None:
        if metric not in OBJECTIVES:
            raise ValueError(f"unknown objective {metric!r}; "
                             f"expected one of {OBJECTIVES}")
        self.metric = metric

    def run(self, runner) -> StrategyResult:  # pragma: no cover - interface
        raise NotImplementedError

    def provenance(self, *, rung: Optional[int] = None,
                   proxy_qubits: Optional[int] = None) -> Dict[str, object]:
        """The provenance stamp for rows this strategy asks to evaluate."""

        return {"strategy": self.name, "seed": getattr(self, "seed", None),
                "rung": rung, "proxy_qubits": proxy_qubits}

    def _result(self, records: List[object],
                trace: Optional[List[Dict[str, object]]] = None) -> StrategyResult:
        live = [record for record in records if record is not None]
        return StrategyResult(
            strategy=self.name,
            records=records,
            best=best_record(live, self.metric),
            trace=trace or [],
        )


class ExhaustiveGrid(Strategy):
    """Evaluate every point of the space, in enumeration order."""

    name = "grid"
    shardable = True

    def run(self, runner) -> StrategyResult:
        runner.provenance = self.provenance()
        records = runner.evaluate(list(runner.space.points()))
        return self._result(records)


class RandomSampling(Strategy):
    """Evaluate a seeded random subset of the grid.

    ``samples`` points are drawn without replacement and evaluated in
    enumeration order (so the executed batch is a sub-grid: deterministic,
    shardable, and maximally cache-friendly).
    """

    name = "random"
    shardable = True

    def __init__(self, samples: int, seed: int = 0, metric: str = "fidelity") -> None:
        super().__init__(metric)
        if samples < 1:
            raise ValueError("samples must be a positive integer")
        self.samples = samples
        self.seed = seed

    def run(self, runner) -> StrategyResult:
        runner.provenance = self.provenance()
        all_points = list(runner.space.points())
        rng = random.Random(self.seed)
        count = min(self.samples, len(all_points))
        chosen = sorted(rng.sample(range(len(all_points)), count))
        records = runner.evaluate([all_points[index] for index in chosen])
        trace = [{"round": 0, "sampled": count, "of": len(all_points)}]
        return self._result(records, trace)


class CoordinateDescent(Strategy):
    """Greedy hill-climb: optimise one axis at a time until converged.

    From a seeded start point, each round sweeps the axes in declaration
    order; for every axis the strategy evaluates all candidate values (other
    coordinates fixed) and moves to the best.  Converged when a full round
    moves nothing.  Already-evaluated points replay from the store, so the
    climb costs far fewer simulations than the grid whenever axes interact
    weakly.
    """

    name = "greedy"
    shardable = False

    def __init__(self, seed: int = 0, metric: str = "fidelity",
                 max_rounds: int = 10) -> None:
        super().__init__(metric)
        if max_rounds < 1:
            raise ValueError("max_rounds must be a positive integer")
        self.seed = seed
        self.max_rounds = max_rounds

    def run(self, runner) -> StrategyResult:
        runner.provenance = self.provenance()
        space = runner.space
        rng = random.Random(self.seed)
        coords = {axis: rng.choice(space.axis_values(axis)) for axis in AXES}

        all_records: List[object] = []
        trace: List[Dict[str, object]] = []
        current = runner.evaluate([space.point_for(coords)])[0]
        all_records.append(current)
        for round_index in range(self.max_rounds):
            moved = False
            for axis in AXES:
                values = space.axis_values(axis)
                if len(values) == 1:
                    continue
                candidates = []
                for value in values:
                    candidate = dict(coords)
                    candidate[axis] = value
                    candidates.append(space.point_for(candidate))
                records = runner.evaluate(candidates)
                all_records.extend(records)
                best_index = max(range(len(records)),
                                 key=lambda i: objective_value(records[i], self.metric))
                if values[best_index] != coords[axis]:
                    if objective_value(records[best_index], self.metric) > \
                            objective_value(current, self.metric):
                        coords[axis] = values[best_index]
                        current = records[best_index]
                        moved = True
                trace.append({"round": round_index, "axis": axis,
                              "value": coords[axis],
                              "score": objective_value(current, self.metric)})
            if not moved:
                break

        result = self._result(all_records, trace)
        result.best = current  # the climb's endpoint, not a global re-scan
        return result


class SuccessiveHalving(Strategy):
    """Rank candidates on a cheap scaled-down proxy, halve, then go full scale.

    Every architectural point is first scored with its application rebuilt at
    ``proxy_qubits`` (a structurally identical small-suite instance -- the
    16-qubit suites used throughout the tests and benches).  The top
    ``1/eta`` fraction survives; the proxy size doubles each rung; the final
    survivors are evaluated at the space's true size.  Proxy evaluations are
    ordinary design points, so they persist in the store and are shared
    across strategies and reruns.
    """

    name = "halving"
    shardable = False

    def __init__(self, seed: int = 0, metric: str = "fidelity", eta: int = 2,
                 proxy_qubits: int = 12, min_survivors: int = 1) -> None:
        super().__init__(metric)
        if eta < 2:
            raise ValueError("eta must be at least 2")
        if proxy_qubits < 8:
            raise ValueError("proxy_qubits must be at least 8 "
                             "(the smallest scaled suite)")
        if min_survivors < 1:
            raise ValueError("min_survivors must be positive")
        self.seed = seed
        self.eta = eta
        self.proxy_qubits = proxy_qubits
        self.min_survivors = min_survivors

    def run(self, runner) -> StrategyResult:
        space = runner.space
        candidates = list(space.points())
        full_sizes = {qubits for qubits in space.qubits}
        # The proxy ladder only makes sense below the true size; None means
        # "application default" (paper scale, 64-78 qubits).
        size_cap = min((qubits for qubits in full_sizes if qubits is not None),
                       default=None)

        all_records: List[object] = []
        trace: List[Dict[str, object]] = []
        size = self.proxy_qubits
        rung = 0
        while len(candidates) > self.min_survivors and \
                (size_cap is None or size < size_cap):
            proxies = [point.with_qubits(size) for point in candidates]
            runner.provenance = self.provenance(rung=rung, proxy_qubits=size)
            records = runner.evaluate(proxies)
            all_records.extend(records)
            ranked = sorted(range(len(candidates)),
                            key=lambda i: (-objective_value(records[i], self.metric), i))
            keep = max(self.min_survivors,
                       math.ceil(len(candidates) / self.eta))
            survivors = sorted(ranked[:keep])
            trace.append({"rung": rung, "proxy_qubits": size,
                          "candidates": len(candidates), "kept": keep})
            candidates = [candidates[i] for i in survivors]
            size *= 2
            rung += 1

        runner.provenance = self.provenance(rung=rung)
        finals = runner.evaluate(candidates)
        all_records.extend(finals)
        trace.append({"rung": rung, "proxy_qubits": None,
                      "candidates": len(candidates), "kept": len(candidates)})
        result = self._result(all_records, trace)
        result.best = best_record([r for r in finals if r is not None], self.metric)
        return result


class ProposerStrategy(Strategy):
    """An adaptive strategy: its proposer spec, driven in-process.

    ``spec`` is the ``strategy`` entry ``repro dse dispatch`` writes into
    its manifest (:func:`make_strategy` builds it for both commands;
    ``name`` picks the proposer, the other keys are its knobs, and the
    dispatcher adds ``parts`` and the default ``max_evals``), and
    :func:`~repro.dse.adaptive.propose.make_proposer` turns it into the
    proposer.  :meth:`run` alternates the proposer's ``next_batch`` /
    ``ingest`` with the runner's ``evaluate`` -- exactly the loop
    :func:`repro.dse.adaptive.protocol.run_proposer` drives over the work
    ledger -- so serial, ``--jobs N`` and dispatched runs propose the same
    sequence.  A multi-objective spec (``objectives``) also reports the
    Pareto archive (``result.frontier``) next to the scalar best under the
    first objective.
    """

    shardable = False

    def __init__(self, spec: Dict[str, object]) -> None:
        self.spec = dict(spec)
        self.name = self.spec["name"]
        objectives = self.spec.get("objectives")
        self.objectives = tuple(objectives) if objectives else None
        # What the result's scalar best ranks by: the first objective of a
        # multi-objective spec, else its metric.
        super().__init__(objectives[0] if objectives
                         else self.spec.get("metric", "fidelity"))

    def run(self, runner) -> StrategyResult:
        from repro.dse.adaptive.propose import make_proposer

        proposer = make_proposer(runner.space, self.spec)
        records: List[object] = []
        trace: List[Dict[str, object]] = []
        # Latest record per candidate key: for multi-fidelity proposers the
        # last write is the full-scale rung, which is what best() names.
        key_record: Dict[object, object] = {}
        while True:
            batch = proposer.next_batch()
            if batch is None:
                break
            runner.provenance = dict(proposer.stamp(), rung=batch.rung,
                                     proxy_qubits=batch.proxy_qubits)
            evaluated = runner.evaluate(list(batch.points))
            proposer.ingest(batch, proposer.values(evaluated))
            key_record.update(zip(batch.keys, evaluated))
            records.extend(evaluated)
            trace.append(proposer.trace_entry(batch))
        result = self._result(records, trace)
        best = proposer.best()
        if best is not None:
            result.best = key_record[best[0]]
        frontier = proposer.frontier()
        if frontier is not None:
            result.frontier = [key_record[key] for key, _ in frontier]
        return result


def make_strategy(name: str, *, seed: int = 0, metric: str = "fidelity",
                  samples: Optional[int] = None,
                  proxy_qubits: int = 12,
                  batch_size: int = 4,
                  max_evals: Optional[int] = None,
                  surrogate: Optional[str] = None,
                  objectives=None) -> Strategy:
    """Build a strategy from its CLI name and knobs.

    An adaptive name gives a :class:`ProposerStrategy` whose spec holds
    the knobs its proposer reads: ``batch_size`` and ``max_evals`` (when
    given) for the budgeted ``bayes``, ``ehvi`` and ``parego``,
    ``proxy_qubits`` for ``adaptive-halving``, ``metric`` for the scalar
    two and the validated ``objectives`` for the multi-objective two, and
    ``surrogate`` when given (each proposer has its own default).
    """

    if name in MOO_STRATEGY_NAMES:
        if metric != "fidelity":
            # Mirror the --objectives-with-scalar-strategy error below: a
            # metric silently dropped would search objectives the caller
            # never asked for.
            partner = "runtime" if metric != "runtime" else "fidelity"
            raise ValueError(f"--metric does not apply to the "
                             f"multi-objective strategy {name!r}; name the "
                             f"objective vector with --objectives instead "
                             f"(e.g. --objectives {metric},{partner})")
        from repro.dse.moo import DEFAULT_OBJECTIVES, parse_objectives

        spec = {"name": name, "seed": seed, "objectives": list(
            parse_objectives(objectives or DEFAULT_OBJECTIVES))}
    elif objectives:
        raise ValueError(f"--objectives only applies to the multi-objective "
                         f"strategies {MOO_STRATEGY_NAMES}; "
                         f"use --metric with {name!r}")
    elif name == "grid":
        return ExhaustiveGrid(metric=metric)
    elif name == "random":
        if samples is None:
            raise ValueError("random sampling needs --samples")
        return RandomSampling(samples, seed=seed, metric=metric)
    elif name == "greedy":
        return CoordinateDescent(seed=seed, metric=metric)
    elif name == "halving":
        return SuccessiveHalving(seed=seed, metric=metric,
                                 proxy_qubits=proxy_qubits)
    elif name == "bayes":
        spec = {"name": name, "seed": seed, "metric": metric}
    elif name == "adaptive-halving":
        spec = {"name": name, "seed": seed, "metric": metric,
                "proxy_qubits": proxy_qubits}
    else:
        raise ValueError(f"unknown strategy {name!r}; "
                         f"expected one of {STRATEGY_NAMES}")
    if name != "adaptive-halving":  # the ladder sizes itself: no budget
        spec["batch_size"] = batch_size
        if max_evals is not None:
            spec["max_evals"] = max_evals
    if surrogate is not None:
        spec["surrogate"] = surrogate
    return ProposerStrategy(spec)
