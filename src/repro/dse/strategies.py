"""Search strategies over a design space: the grid, and one driver for
every other strategy.

Each strategy decides *which* points to evaluate (and in what order); the
:class:`~repro.dse.runner.DSERunner` decides *how* (store replay, gate
fan-out, sharding).  All strategies are deterministic under a fixed seed:
randomness comes only from ``random.Random(seed)``, evaluation results do
not depend on which process computed them, and every tie breaks towards
the earlier candidate, so the same (space, strategy, seed) always explores
the same points and reports the same best.

* :class:`ExhaustiveGrid` -- every point, in enumeration order (the paper's
  figure sweeps; the one strategy that takes ``--shard``).
* :class:`ProposerStrategy` -- every other strategy, each one proposer
  spec (:mod:`repro.dse.adaptive.propose`) driven in-process:

  - ``random`` -- a seeded random subset of the grid, in one batch;
  - ``greedy`` -- coordinate descent: a seeded start point, then one batch
    per axis sweep, moving to the best point until a round moves nothing;
  - ``halving`` -- successive halving: rank the candidates on a cheap
    scaled-down proxy suite, keep the best half, grow the proxy, and
    evaluate only the survivors at full scale;
  - ``bayes`` -- surrogate-guided batch search: seeded random
    initialisation, then expected-improvement batches under an
    incremental surrogate model, within a budget of a quarter of the grid;
  - ``adaptive-halving`` -- the same proxy ladder, promoting only the
    candidates the surrogate rates as possible winners;
  - ``ehvi`` / ``parego`` -- multi-objective frontier search
    (:mod:`repro.dse.moo`): expected-hypervolume-improvement over one
    surrogate per objective, and the seeded random-weight Chebyshev
    scalarization baseline, within a budget of half the grid.  Both
    optimise a named *objective vector* (``--objectives
    fidelity,runtime``) and report the Pareto archive next to the scalar
    best.

Every strategy stamps its provenance (name, seed, multi-fidelity rung) into
the rows it persists (schema v3), so ``dse status --by-strategy`` can
attribute stored points.  Every strategy also runs on the work ledger
(:meth:`Strategy.ledger_spec`: ``repro dse dispatch``, or ``dse run --jobs
N``): the grid in static shards, the others through the propose/evaluate
protocol with the same spec in the manifest, so the proposal sequence is
identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dse.knobs import STRATEGY_KNOBS, strategy_knobs
from repro.dse.pareto import OBJECTIVES, best_record

#: CLI names of the built-in strategies: the grid, then the strategies of
#: :func:`~repro.dse.adaptive.propose.make_proposer`'s table, each a
#: :class:`ProposerStrategy` over its proposer.
STRATEGY_NAMES = tuple(STRATEGY_KNOBS)

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
    #: One entry per proposal batch (its proposer's ``trace_entry``, for
    #: reports); empty for the grid.
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

    def check_shard(self, shard) -> None:
        """Refuse a shard (``None`` is no shard) unless :attr:`shardable`."""

        if shard is not None and not self.shardable:
            raise ValueError(
                f"strategy {self.name!r} cannot be sharded: only the grid "
                f"takes --shard; run it unsharded, or distribute it with "
                f"`repro dse dispatch --strategy {self.name}`")

    def ledger_spec(self) -> Optional[Dict[str, object]]:
        """The ``strategy`` a :class:`~repro.dse.dispatch.Dispatcher` runs
        for this one: ``None`` for the grid's static shards, a proposer spec
        for the propose/evaluate protocol."""

        return None

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
        runner.provenance = {"strategy": self.name, "seed": None,
                             "rung": None, "proxy_qubits": None}
        records = runner.evaluate(list(runner.space.points()))
        return self._result(records)


class ProposerStrategy(Strategy):
    """Any strategy but the grid: its proposer spec, driven in-process.

    ``spec`` is the ``strategy`` entry ``repro dse dispatch`` writes into
    its manifest (:func:`make_strategy` builds it for both commands;
    ``name`` picks the proposer, the other keys are its knobs, and the
    dispatcher adds ``parts`` and the default ``max_evals``), and
    :func:`~repro.dse.adaptive.propose.make_proposer` turns it into the
    proposer.  :meth:`run` alternates the proposer's ``next_batch`` /
    ``ingest`` with the runner's ``evaluate`` -- exactly the loop
    :func:`repro.dse.adaptive.protocol.run_proposer` drives over the work
    ledger -- so serial, ``--jobs N`` and dispatched runs propose the same
    sequence (:meth:`ledger_spec` hands the spec to the dispatcher).  A
    multi-objective spec (``objectives``) also reports the Pareto archive
    (``result.frontier``) next to the scalar best under the first
    objective.
    """

    def __init__(self, spec: Dict[str, object]) -> None:
        self.spec = dict(spec)
        self.name = self.spec["name"]
        objectives = self.spec.get("objectives")
        self.objectives = tuple(objectives) if objectives else None
        # What the result's scalar best ranks by: the first objective of a
        # multi-objective spec, else its metric.
        super().__init__(objectives[0] if objectives
                         else self.spec.get("metric", "fidelity"))

    def ledger_spec(self) -> Dict[str, object]:
        return dict(self.spec)

    def run(self, runner) -> StrategyResult:
        from repro.dse.adaptive.propose import make_proposer

        if "proxy_qubits" in self.spec and runner.circuits is not None:
            raise ValueError(
                f"strategy {self.name!r} needs the default application "
                f"builder: its proxy rungs rebuild the applications at other "
                f"sizes, and this runner was given pre-built circuits")
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
                  proxy_qubits: Optional[int] = None,
                  batch_size: Optional[int] = None,
                  max_evals: Optional[int] = None,
                  surrogate: Optional[str] = None,
                  objectives=None) -> Strategy:
    """Build a strategy from its CLI name and knobs.

    Each strategy reads the knobs :data:`~repro.dse.knobs.STRATEGY_KNOBS`
    lists (``proxy_qubits`` defaults to 12, ``batch_size`` to 4); any other
    knob given is refused by its flag.  ``grid`` gives an
    :class:`ExhaustiveGrid`; every other name a :class:`ProposerStrategy`
    whose spec holds the seed, the knobs its proposer reads (``samples``
    for ``random``, ``proxy_qubits`` for the two ladders, ``batch_size``
    and ``max_evals`` when given for the budgeted ``bayes``, ``ehvi`` and
    ``parego``, and ``surrogate`` when given, each proposer having its own
    default), and ``metric`` for the scalar strategies or the validated
    ``objectives`` for the multi-objective two.
    """

    knobs = strategy_knobs(name, samples=samples, proxy_qubits=proxy_qubits,
                           batch_size=batch_size, max_evals=max_evals,
                           surrogate=surrogate)
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
    elif name == "random" and samples is None:
        raise ValueError("random sampling needs --samples")
    else:
        spec = {"name": name, "seed": seed, "metric": metric}
    spec.update(knobs)
    return ProposerStrategy(spec)
