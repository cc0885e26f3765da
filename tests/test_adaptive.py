"""Tests for the adaptive model-based search subsystem (repro.dse.adaptive).

Covers the contracts the subsystem is built around:

* surrogate models and proposers are bit-deterministic under a fixed seed;
* the same (space, strategy, seed) yields the identical proposal sequence
  and best point for any ``--jobs`` value and for single-process vs.
  dispatched propose/evaluate runs (kill-one-worker variant included,
  driven through ``examples/dse_adaptive.py --smoke`` exactly like the
  shard dispatcher's smoke in ``tests/test_dispatch.py``);
* proposal parts in the work ledger detect torn/tampered batches and
  recover a killed proposer from the ledger alone;
* store rows carry schema v3 provenance that canonical exports strip;
* ``ExperimentStore.reload`` is incremental: O(new rows), no re-parse of
  unchanged files, full-rescan fallback on shrink/disappear.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.dse import (
    DSERunner,
    DesignSpace,
    ExperimentStore,
    Shard,
    WorkLedger,
    make_strategy,
    read_manifest,
    run_proposer,
    run_worker,
    write_manifest,
)
from repro.dse.adaptive.model import (
    PointEncoder,
    RFFSurrogate,
    TreeEnsembleSurrogate,
    make_surrogate,
)
from repro.dse.adaptive.propose import (
    AdaptiveHalvingProposer,
    BayesProposer,
    expected_improvement,
    make_proposer,
    upper_confidence_bound,
)
from repro.dse.adaptive.protocol import (
    batch_from_payload,
    part_name,
    read_logical_batch,
    write_batch,
)
from repro.dse.dispatch import WorkTampered

#: A fast 8-point space evaluated entirely with 8-qubit circuits.
TINY_SPACE = dict(apps=("QFT", "BV"), qubits=(8,), topologies=("L3",),
                  capacities=(6, 8), gates=("AM1", "FM"), reorders=("GS",))


def _space() -> DesignSpace:
    return DesignSpace(**TINY_SPACE)


def _rows(records):
    return [record.as_row() for record in records]


# --------------------------------------------------------------------------- #
class TestPointEncoder:
    def test_distinct_points_encode_distinctly(self):
        space = _space()
        encoder = PointEncoder(space)
        encoded = [encoder.encode(point) for point in space.points()]
        assert len(set(encoded)) == space.size
        assert all(len(features) == encoder.dim for features in encoded)

    def test_numeric_axes_normalise_and_extrapolate(self):
        space = _space()
        encoder = PointEncoder(space)
        points = list(space.points())
        low = [p for p in points if p.config.trap_capacity == 6][0]
        high = [p for p in points if p.config.trap_capacity == 8][0]
        assert encoder.encode(low)[0] == 0.0
        assert encoder.encode(high)[0] == 1.0
        # Proxy sizes (multi-fidelity rungs) encode without error.
        proxy = encoder.encode(low.with_qubits(16))
        assert len(proxy) == encoder.dim

    def test_none_qubits_encodes_as_full_scale(self):
        space = DesignSpace(apps=("QFT",), topologies=("L3",), capacities=(6,))
        encoder = PointEncoder(space)
        point = next(space.points())
        assert point.qubits is None
        assert encoder.encode(point)[2] == 1.0  # the qubits feature


class TestSurrogates:
    def _data(self):
        # y = 2*x0 - x1 + noiseless structure over a tiny grid.
        xs = [(a / 3.0, b / 3.0, float(a == b)) for a in range(4)
              for b in range(4)]
        ys = [2.0 * x[0] - x[1] for x in xs]
        return xs, ys

    @pytest.mark.parametrize("name", ["rff", "trees"])
    def test_seeded_determinism(self, name):
        xs, ys = self._data()
        predictions = []
        for _ in range(2):
            model = make_surrogate(name, 3, seed=7)
            for x, y in zip(xs, ys):
                model.observe(x, y)
            predictions.append([model.predict(x) for x in xs])
        assert predictions[0] == predictions[1]  # bit-identical

    @pytest.mark.parametrize("name", ["rff", "trees"])
    def test_learns_ranking(self, name):
        xs, ys = self._data()
        model = make_surrogate(name, 3, seed=0)
        for x, y in zip(xs, ys):
            model.observe(x, y)
        best = max(range(len(xs)), key=lambda i: ys[i])
        worst = min(range(len(xs)), key=lambda i: ys[i])
        assert model.predict(xs[best])[0] > model.predict(xs[worst])[0]

    def test_rff_incremental_matches_batch(self):
        # Sufficient statistics are order-accumulated, so two models fed
        # the same sequence agree exactly.
        xs, ys = self._data()
        one = RFFSurrogate(3, seed=1)
        two = RFFSurrogate(3, seed=1)
        for x, y in zip(xs, ys):
            one.observe(x, y)
        half = len(xs) // 2
        for x, y in zip(xs[:half], ys[:half]):
            two.observe(x, y)
        _ = two.predict(xs[0])  # interleaved prediction must not disturb
        for x, y in zip(xs[half:], ys[half:]):
            two.observe(x, y)
        assert one.predict(xs[3]) == two.predict(xs[3])

    def test_empty_model_predicts_prior(self):
        for name in ("rff", "trees"):
            model = make_surrogate(name, 2)
            assert model.predict((0.0, 0.0)) == (0.0, 1.0)

    def test_tree_variance_reflects_disagreement(self):
        xs, ys = self._data()
        model = TreeEnsembleSurrogate(3, seed=0)
        for x, y in zip(xs, ys):
            model.observe(x, y)
        _, std = model.predict((10.0, -10.0, 5.0))  # far outside the data
        assert std >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            RFFSurrogate(0)
        with pytest.raises(ValueError, match="two trees"):
            TreeEnsembleSurrogate(2, trees=1)
        with pytest.raises(ValueError, match="unknown surrogate"):
            make_surrogate("magic", 2)


class TestAcquisition:
    def test_expected_improvement_properties(self):
        # No uncertainty: EI is the plain improvement, floored at zero.
        assert expected_improvement(1.0, 0.0, 0.5) == 0.5
        assert expected_improvement(0.2, 0.0, 0.5) == 0.0
        # Uncertainty adds optimism: EI > 0 even below the incumbent.
        assert expected_improvement(0.4, 0.1, 0.5) > 0.0
        # More uncertainty, more EI (same mean).
        assert expected_improvement(0.4, 0.3, 0.5) > \
            expected_improvement(0.4, 0.1, 0.5)

    def test_ucb(self):
        assert upper_confidence_bound(1.0, 0.5, 2.0) == 2.0
        assert upper_confidence_bound(1.0, 0.0) == 1.0


# --------------------------------------------------------------------------- #
class TestBayesProposer:
    def test_budget_and_no_repeats(self):
        space = _space()
        proposer = BayesProposer(space, seed=0, batch_size=2, max_evals=6)
        seen = []
        while True:
            batch = proposer.next_batch()
            if batch is None:
                break
            seen.extend(batch.keys)
            proposer.ingest(batch, [0.5] * len(batch.keys))
        assert len(seen) == len(set(seen)) == 6

    def test_proposal_sequence_is_deterministic(self):
        space = _space()
        values = {index: 1.0 / (index + 1)
                  for index in range(space.size)}
        sequences = []
        for _ in range(2):
            proposer = BayesProposer(space, seed=3, batch_size=2, max_evals=6)
            sequence = []
            while True:
                batch = proposer.next_batch()
                if batch is None:
                    break
                sequence.append(batch.keys)
                proposer.ingest(batch, [values[k] for k in batch.keys])
            sequences.append((sequence, proposer.best()))
        assert sequences[0] == sequences[1]

    def test_seed_changes_initialisation(self):
        space = _space()
        first = BayesProposer(space, seed=0, batch_size=4).next_batch()
        assert any(BayesProposer(space, seed=s, batch_size=4)
                   .next_batch().keys != first.keys for s in (1, 2, 3))

    def test_guided_batch_prefers_predicted_optimum(self):
        # Observe half the space with "higher index is better"; the guided
        # batch must pick unobserved candidates, deterministically.
        space = _space()
        proposer = BayesProposer(space, seed=1, batch_size=4, max_evals=8)
        batch = proposer.next_batch()
        proposer.ingest(batch, [key / 10.0 for key in batch.keys])
        guided = proposer.next_batch()
        assert set(guided.keys).isdisjoint(batch.keys)

    def test_best_tie_breaks_to_earliest(self):
        space = _space()
        proposer = BayesProposer(space, seed=0, batch_size=4, max_evals=4)
        batch = proposer.next_batch()
        proposer.ingest(batch, [0.7, 0.9, 0.9, 0.1])
        assert proposer.best() == (batch.keys[1], 0.9)

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            BayesProposer(_space(), batch_size=0)
        with pytest.raises(ValueError, match="acquisition"):
            BayesProposer(_space(), acquisition="magic")
        with pytest.raises(ValueError, match="unknown adaptive strategy"):
            make_proposer(_space(), {"name": "grid"})


class TestAdaptiveHalvingProposer:
    def test_ladder_shrinks_and_finishes_full_scale(self):
        space = DesignSpace(apps=("QFT", "BV"), qubits=(16,),
                            topologies=("L3",), capacities=(6, 8),
                            gates=("AM1", "FM"), reorders=("GS",))
        proposer = AdaptiveHalvingProposer(space, seed=0, proxy_qubits=8)
        sizes = []
        while True:
            batch = proposer.next_batch()
            if batch is None:
                break
            sizes.append((batch.proxy_qubits, len(batch.keys)))
            # Candidate index is the score: a clear, consistent ranking.
            proposer.ingest(batch, [k / 10.0 for k in batch.keys])
        assert sizes[0][0] == 8  # first rung at the proxy size
        assert sizes[-1][0] is None  # last rung at full scale
        counts = [count for _, count in sizes]
        assert counts == sorted(counts, reverse=True)
        assert proposer.best() is not None

    def test_promotion_caps_at_half_and_floors_at_min(self):
        space = DesignSpace(**dict(TINY_SPACE, qubits=(16,)))
        proposer = AdaptiveHalvingProposer(space, seed=0, proxy_qubits=8,
                                           min_survivors=2)
        batch = proposer.next_batch()
        assert batch.proxy_qubits == 8  # a genuine proxy rung
        # All candidates tie: the UCB rule would keep everyone, so the cap
        # must bound survivors at half the rung.
        proposer.ingest(batch, [0.5] * len(batch.keys))
        kept = proposer.trace[-1]["kept"]
        assert kept <= max(2, -(-len(batch.keys) // 2))
        assert kept >= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="proxy_qubits"):
            AdaptiveHalvingProposer(_space(), proxy_qubits=4)
        with pytest.raises(ValueError, match="min_survivors"):
            AdaptiveHalvingProposer(_space(), min_survivors=0)


# --------------------------------------------------------------------------- #
class TestAdaptiveStrategies:
    @pytest.mark.parametrize("name,kwargs", [
        ("bayes", dict(batch_size=2)),
        ("adaptive-halving", dict(proxy_qubits=8)),
    ])
    def test_deterministic_for_any_jobs(self, dse_run_output, name, kwargs):
        # --jobs 2 runs the proposer over two local ledger workers, then
        # replays the store: the output is the serial run's, byte for byte.
        flags = ["--strategy", name]
        for knob, value in kwargs.items():
            flags += [f"--{knob.replace('_', '-')}", str(value)]
        assert dse_run_output(*flags, jobs=2) == \
            dse_run_output(*flags, jobs=1)

    def test_bayes_respects_quarter_budget(self):
        space = _space()
        runner = DSERunner(space)
        runner.run(make_strategy("bayes", seed=0, batch_size=2))
        assert runner.stats["evaluated"] <= max(4, space.size // 4)

    def test_bayes_reuses_store_across_runs(self):
        runner = DSERunner(_space())
        first = runner.run(make_strategy("bayes", seed=2, batch_size=2))
        rerun = DSERunner(_space(), store=runner.store)
        second = rerun.run(make_strategy("bayes", seed=2, batch_size=2))
        assert rerun.stats["evaluated"] == 0
        assert _rows(first.evaluated) == _rows(second.evaluated)
        assert first.best.as_row() == second.best.as_row()

    def test_adaptive_strategies_refuse_static_shards(self):
        runner = DSERunner(_space(), shard=Shard(1, 2))
        with pytest.raises(ValueError, match="cannot be sharded"):
            runner.run(make_strategy("bayes"))

    def test_adaptive_halving_best_is_full_scale(self):
        space = DesignSpace(apps=("BV",), qubits=(16,), topologies=("L3",),
                            capacities=(6, 8), gates=("AM1", "FM"),
                            reorders=("GS",))
        result = DSERunner(space).run(
            make_strategy("adaptive-halving", proxy_qubits=8))
        assert result.best.as_row()["application"] == "bv16"

    def test_make_strategy_names(self):
        assert make_strategy("bayes").name == "bayes"
        assert make_strategy("adaptive-halving").name == "adaptive-halving"
        assert make_strategy("bayes", surrogate="trees").spec["surrogate"] \
            == "trees"


# --------------------------------------------------------------------------- #
#: The 8-point space as ``dse`` flags (``_space()``).
TINY_FLAGS = ["--apps", "QFT,BV", "--qubits", "8", "--topologies", "L3",
              "--capacities", "6,8", "--gates", "AM1,FM", "--reorders", "GS"]

#: What each adaptive strategy must keep doing, recorded at commit fad6e5e
#: (before a strategy became its proposer spec).  ``dse dispatch
#: --print-only`` on the 8-point space writes these ``strategy`` entries,
#: with default flags and with ``--max-evals 6 --surrogate trees``
#: (``--surrogate trees`` alone for ``adaptive-halving``, which reads no
#: budget).
MANIFEST_STRATEGIES = {
    "bayes": (
        {"batch_size": 4, "max_evals": 8, "metric": "fidelity",
         "name": "bayes", "parts": 2, "seed": 0},
        {"batch_size": 4, "max_evals": 6, "metric": "fidelity",
         "name": "bayes", "parts": 2, "seed": 0, "surrogate": "trees"}),
    "adaptive-halving": (
        {"metric": "fidelity", "name": "adaptive-halving", "parts": 2,
         "proxy_qubits": 12, "seed": 0},
        {"metric": "fidelity", "name": "adaptive-halving", "parts": 2,
         "proxy_qubits": 12, "seed": 0, "surrogate": "trees"}),
    "ehvi": (
        {"batch_size": 4, "max_evals": 8, "name": "ehvi",
         "objectives": ["fidelity", "runtime"], "parts": 2, "seed": 0},
        {"batch_size": 4, "max_evals": 6, "name": "ehvi",
         "objectives": ["fidelity", "runtime"], "parts": 2, "seed": 0,
         "surrogate": "trees"}),
    "parego": (
        {"batch_size": 4, "max_evals": 8, "name": "parego",
         "objectives": ["fidelity", "runtime"], "parts": 2, "seed": 0},
        {"batch_size": 4, "max_evals": 6, "name": "parego",
         "objectives": ["fidelity", "runtime"], "parts": 2, "seed": 0,
         "surrogate": "trees"}),
}

#: Seed 5, batch size 2, a budget of 6 (``adaptive-halving`` takes only the
#: seed): the proposal batches as candidate keys, the best key and the
#: frontier keys, recorded at the same commit.
PROPOSALS = {
    "bayes": ([[4, 5], [6, 7], [0, 2]], 7, None),
    "adaptive-halving": ([[0, 1, 2, 3, 4, 5, 6, 7]], 7, None),
    "ehvi": ([[4, 5], [0, 1], [2, 3]], 3, [3]),
    "parego": ([[4, 5], [2, 3], [6, 7]], 7, [7]),
}


def _knobs(name, **budget):
    return dict(seed=5) if name == "adaptive-halving" else \
        dict(seed=5, batch_size=2, **budget)


def _label(record):
    return f"{record.application}/{record.config.name}"


def _point_label(point):
    return f"{point.app.lower()}{point.qubits}/{point.config.name}"


class TestStrategySpecs:
    """Each adaptive strategy is one proposer spec: the manifest entry, the
    proposal sequence and the metering are the same for all four."""

    @pytest.mark.parametrize("name", sorted(MANIFEST_STRATEGIES))
    def test_dispatch_manifest_strategy_entry(self, name, tmp_path, capsys):
        default, budgeted = MANIFEST_STRATEGIES[name]
        knobs = dict(surrogate="trees") if name == "adaptive-halving" else \
            dict(max_evals=6, surrogate="trees")
        budget_flags = [item for knob, value in knobs.items() for item in
                        ("--" + knob.replace("_", "-"), str(value))]
        for flags, expected in (([], default), (budget_flags, budgeted)):
            store = tmp_path / f"store{len(flags)}"
            assert main(["dse", "dispatch", *TINY_FLAGS, "--strategy", name,
                         *flags, "--store", str(store), "--print-only"]) == 0
            assert read_manifest(store)["strategy"] == expected
        # `dse run` runs the spec the manifest records, less the parts the
        # dispatcher adds.
        spec = make_strategy(name, **knobs).spec
        assert dict(spec, parts=2) == budgeted

    @pytest.mark.parametrize("strategy, flags, flag", [
        ("adaptive-halving", ["--max-evals", "6"], "--max-evals"),
        ("adaptive-halving", ["--batch-size", "2"], "--batch-size"),
        ("bayes", ["--proxy-qubits", "8"], "--proxy-qubits"),
        ("grid", ["--max-evals", "3", "--surrogate", "trees"], "--max-evals"),
        ("grid", ["--surrogate", "trees"], "--surrogate"),
    ])
    @pytest.mark.parametrize("command", ["run", "dispatch"])
    def test_knob_the_strategy_does_not_read_is_refused(
            self, command, strategy, flags, flag, tmp_path):
        argv = ["dse", command, *TINY_FLAGS, "--strategy", strategy, *flags,
                "--store", str(tmp_path / "store")]
        if command == "dispatch":
            argv.append("--print-only")
        with pytest.raises(SystemExit, match=f"{flag} does not apply to "
                                             f"--strategy {strategy}"):
            main(argv)
        assert not (tmp_path / "store" / "dispatch.json").exists()

    @pytest.mark.parametrize("strategy", ["grid", "greedy", "bayes"])
    def test_samples_apply_only_to_random(self, strategy, tmp_path):
        with pytest.raises(SystemExit, match="--samples does not apply"):
            main(["dse", "run", *TINY_FLAGS, "--strategy", strategy,
                  "--samples", "3"])
        with pytest.raises(ValueError, match="--samples does not apply"):
            make_strategy(strategy, samples=3)

    @pytest.mark.parametrize("name", sorted(PROPOSALS))
    def test_proposal_sequence_best_and_frontier(self, name):
        space = _space()
        strategy = make_strategy(name, **_knobs(name, max_evals=6))
        proposer = make_proposer(space, strategy.spec)
        runner = DSERunner(space)
        batches = []
        while True:
            batch = proposer.next_batch()
            if batch is None:
                break
            batches.append(list(batch.keys))
            records = runner.evaluate(list(batch.points))
            proposer.ingest(batch, proposer.values(records))
        frontier = proposer.frontier()
        expected_batches, best, expected_frontier = PROPOSALS[name]
        assert batches == expected_batches
        assert proposer.best()[0] == best
        assert expected_frontier == (None if frontier is None
                                     else [key for key, _ in frontier])

        # The in-process strategy evaluates the same points in order and
        # reports the records of the best and frontier keys.
        key_of = {_point_label(point): key
                  for key, point in enumerate(space.points())}
        result = DSERunner(space).run(strategy)
        assert [key_of[_label(record)] for record in result.records] == \
            [key for batch in expected_batches for key in batch]
        assert key_of[_label(result.best)] == best
        assert expected_frontier == (
            None if result.frontier is None else
            [key_of[_label(record)] for record in result.frontier])

    @pytest.mark.parametrize("name", sorted(PROPOSALS))
    def test_every_strategy_meters_its_proposer(self, name):
        from repro.obs.metrics import reset_registry

        registry = reset_registry()
        try:
            result = DSERunner(_space()).run(make_strategy(name,
                                                           **_knobs(name)))
            counters = registry.counters()
            latency = registry.snapshot()["histograms"][
                "dse.propose.latency_s"]
        finally:
            reset_registry()
        batches = len(result.trace)
        points = sum(entry["proposed"] for entry in result.trace)
        assert (batches, points) == ((1, 8) if name == "adaptive-halving"
                                     else (2, 4))
        assert counters["dse.propose.batches"] == batches
        assert counters["dse.propose.points"] == points
        assert counters["dse.ingest.batches"] == batches
        assert counters["dse.ingest.values"] == points
        assert latency["count"] == batches


# --------------------------------------------------------------------------- #
class TestProvenance:
    def test_rows_carry_strategy_seed_and_rung(self, tmp_path):
        space = _space()
        with ExperimentStore(tmp_path / "store") as store:
            DSERunner(space, store=store).run(
                make_strategy("bayes", seed=9, batch_size=2))
        reloaded = ExperimentStore(tmp_path / "store")
        stamps = [row.get("provenance") for row in reloaded.rows()]
        assert all(stamp is not None for stamp in stamps)
        assert all(stamp["strategy"] == "bayes" for stamp in stamps)
        assert all(stamp["seed"] == 9 for stamp in stamps)
        assert all(stamp["rung"] is None for stamp in stamps)

    def test_halving_rows_record_fidelity_rung(self, tmp_path):
        space = DesignSpace(apps=("BV",), qubits=(16,), topologies=("L3",),
                            capacities=(6, 8), gates=("AM1", "FM"),
                            reorders=("GS",))
        with ExperimentStore(tmp_path / "store") as store:
            DSERunner(space, store=store).run(
                make_strategy("adaptive-halving", proxy_qubits=8))
        rungs = {(row["provenance"]["rung"], row["provenance"]["proxy_qubits"])
                 for row in ExperimentStore(tmp_path / "store").rows()}
        assert any(proxy == 8 for _, proxy in rungs)  # proxy rung recorded
        assert any(proxy is None for _, proxy in rungs)  # full-scale rung

    def test_export_strips_provenance_for_cross_version_stability(self, tmp_path):
        # A grid store (with provenance) and a hand-written v2-era store of
        # the same rows must export byte-identically.
        space = _space()
        with ExperimentStore(tmp_path / "new") as store:
            DSERunner(space, store=store).run(make_strategy("grid"))
        new_store = ExperimentStore(tmp_path / "new")
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        with open(old_dir / "results.jsonl", "w") as handle:
            for row in new_store.rows():
                stripped = {key: value for key, value in row.items()
                            if key not in ("provenance", "wall_s")}
                stripped["schema_version"] = 2
                handle.write(json.dumps(stripped, sort_keys=True) + "\n")
        assert ExperimentStore(old_dir).export_rows() == \
            new_store.export_rows()

    def test_direct_evaluate_after_strategy_run_is_provenance_free(self, tmp_path):
        # The strategy's provenance context ends with the run: a later
        # direct evaluate() on the same runner must not stamp its rows.
        space = _space()
        with ExperimentStore(tmp_path / "store") as store:
            runner = DSERunner(space, store=store)
            runner.run(make_strategy("bayes", seed=0, batch_size=2))
            assert runner.provenance is None
            leftover = [point for point in space.points()
                        if runner.fingerprint(point) not in store]
            runner.evaluate(leftover[:1])
        reloaded = ExperimentStore(tmp_path / "store")
        stamps = [row.get("provenance") for row in reloaded.rows()]
        assert stamps.count(None) == 1  # exactly the direct evaluation

    def test_replayed_rows_keep_their_provenance(self, tmp_path):
        space = _space()
        with ExperimentStore(tmp_path / "store") as store:
            DSERunner(space, store=store).run(
                make_strategy("bayes", seed=1, batch_size=2))
        reloaded = ExperimentStore(tmp_path / "store")
        record = reloaded.records()[0]
        assert record.provenance["strategy"] == "bayes"
        # Merging the replayed record into a fresh store keeps the stamp.
        from repro.dse import record_to_row
        row = record_to_row("ff", record.point, record)
        assert row["provenance"]["strategy"] == "bayes"

    def test_status_by_strategy_cli(self, tmp_path, capsys):
        space = _space()
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(space, store=store).run(
                make_strategy("bayes", seed=4, batch_size=2))
        with ExperimentStore(store_dir) as store:
            DSERunner(space, store=store).run(make_strategy("grid"))
        assert main(["dse", "status", "--store", str(store_dir),
                     "--by-strategy"]) == 0
        out = capsys.readouterr().out
        assert "By strategy" in out
        assert "bayes" in out
        assert "grid" in out
        assert "seed(s) [4]" in out


# --------------------------------------------------------------------------- #
class TestIncrementalReload:
    def _row(self, fingerprint):
        return {"schema_version": 1, "fingerprint": fingerprint,
                "point": {"app": "QFT", "qubits": None,
                          "config": {"topology": "L3", "trap_capacity": 6,
                                     "gate": "FM", "reorder": "GS",
                                     "buffer_ions": 2}},
                "application": "qft8", "program_ops": 3, "shuttles": 1,
                "metrics": {"duration_us": 10.0, "duration_s": 1e-5,
                            "fidelity": 0.5, "log_fidelity": -0.69,
                            "computation_s": 1e-5, "communication_s": 0.0,
                            "max_motional_energy": 0.0,
                            "mean_background_error": 0.0,
                            "mean_motional_error": 0.0,
                            "num_shuttles": 1.0, "num_ms_gates": 2.0}}

    def test_unchanged_files_are_not_reparsed(self, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir, writer="other") as writer:
            writer.add(self._row("aa"))
            writer.add(self._row("bb"))
        reader = ExperimentStore(store_dir)
        assert len(reader) == 2
        scanned_after_load = reader.scan_stats["files_scanned"]
        bytes_after_load = reader.scan_stats["bytes_read"]
        for _ in range(3):  # progress ticks with nothing new
            reader.reload()
        assert reader.scan_stats["files_scanned"] == scanned_after_load
        assert reader.scan_stats["bytes_read"] == bytes_after_load
        assert reader.scan_stats["files_unchanged"] == 3
        assert reader.scan_stats["full_scans"] == 1

    def test_reload_reads_only_appended_rows(self, tmp_path):
        store_dir = tmp_path / "store"
        writer = ExperimentStore(store_dir, writer="other")
        writer.add(self._row("aa"))
        reader = ExperimentStore(store_dir)
        baseline_bytes = reader.scan_stats["bytes_read"]
        writer.add(self._row("bb"))
        writer.close()
        reader.reload()
        assert sorted(reader.fingerprints()) == ["aa", "bb"]
        appended = reader.scan_stats["bytes_read"] - baseline_bytes
        row_size = len(json.dumps(self._row("bb"), sort_keys=True)) + 1
        assert appended == row_size  # exactly the new row, not the file
        assert reader.scan_stats["full_scans"] == 1  # never rescanned

    def test_own_appends_are_not_reparsed_on_reload(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.add(self._row("aa"))
        bytes_before = store.scan_stats["bytes_read"]
        store.reload()
        store.close()
        assert store.scan_stats["bytes_read"] == bytes_before
        assert "aa" in store

    def test_new_file_is_picked_up(self, tmp_path):
        store_dir = tmp_path / "store"
        reader = ExperimentStore(store_dir)
        with ExperimentStore(store_dir, writer="shard-1of2") as writer:
            writer.add(self._row("aa"))
        reader.reload()
        assert reader.fingerprints() == ["aa"]
        assert reader.scan_stats["full_scans"] == 1

    def test_shrunk_file_triggers_full_rescan(self, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir, writer="other") as writer:
            writer.add(self._row("aa"))
            writer.add(self._row("bb"))
        reader = ExperimentStore(store_dir)
        path = store_dir / "other.jsonl"
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")  # history rewritten: row dropped
        reader.reload()
        assert reader.scan_stats["full_scans"] == 2
        assert reader.fingerprints() == ["aa"]

    def test_deleted_file_triggers_full_rescan(self, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir, writer="gone") as writer:
            writer.add(self._row("aa"))
        with ExperimentStore(store_dir, writer="kept") as writer:
            writer.add(self._row("bb"))
        reader = ExperimentStore(store_dir)
        (store_dir / "gone.jsonl").unlink()
        reader.reload()
        assert reader.scan_stats["full_scans"] == 2
        assert reader.fingerprints() == ["bb"]

    def test_file_replaced_by_rename_between_polls_is_read_once(
            self, tmp_path):
        # A file replaced from outside by rename (a new inode) that has
        # already grown past the old offset: the reader must notice the
        # new inode and rescan, not resume the new file at the old offset.
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir, writer="other") as writer:
            writer.add(self._row("aa"))
            writer.add(self._row("bb"))
        reader = ExperimentStore(store_dir)
        path = store_dir / "other.jsonl"
        replacement = tmp_path / "replacement.jsonl"
        replacement.write_text("".join(
            json.dumps(self._row(fingerprint), sort_keys=True) + "\n"
            for fingerprint in ("cc", "dd", "ee")))
        assert replacement.stat().st_size > path.stat().st_size
        os.replace(replacement, path)
        reader.reload()
        assert reader.scan_stats["full_scans"] == 2
        assert sorted(reader.fingerprints()) == ["cc", "dd", "ee"]
        reader.reload()  # and read once: a later poll adds nothing
        assert reader.scan_stats["full_scans"] == 2
        assert len(reader) == 3

    def test_torn_tail_completed_later_is_picked_up(self, tmp_path):
        # A writer killed mid-append leaves an unterminated fragment; the
        # incremental reader must not consume past it, so when the line is
        # completed (or healed away) the next reload sees the truth.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        path = store_dir / "results.jsonl"
        full = json.dumps(self._row("aa"), sort_keys=True)
        path.write_text(full[:40])  # torn mid-row, no newline
        reader = ExperimentStore(store_dir)
        assert reader.fingerprints() == []
        assert reader.skipped_lines == 1
        path.write_text(full + "\n" + json.dumps(self._row("bb"),
                                                 sort_keys=True) + "\n")
        reader.reload()
        assert sorted(reader.fingerprints()) == ["aa", "bb"]
        # The tentative tail skip evaporated with the completed line: the
        # store ends clean, not haunted by the in-flight snapshot.
        assert reader.skipped_lines == 0

    def test_growing_inflight_tail_never_accumulates_skips(self, tmp_path):
        # A watcher polling reload() while a writer slowly flushes one row
        # must report at most the single in-flight line as skipped, and
        # zero once the line completes -- never one skip per poll.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        path = store_dir / "results.jsonl"
        full = json.dumps(self._row("aa"), sort_keys=True)
        path.write_text(full[:20])
        reader = ExperimentStore(store_dir)
        for cut in (30, 40, 50):  # the writer's flushes land mid-line
            path.write_text(full[:cut])
            reader.reload()
            assert reader.skipped_lines == 1
        path.write_text(full + "\n")
        reader.reload()
        assert reader.skipped_lines == 0
        assert reader.fingerprints() == ["aa"]

    def test_midfile_skip_followed_only_by_tail_still_warns(self, tmp_path):
        # A corrupt terminated line proven mid-file only by an unterminated
        # (in-flight) tail row must still warn -- the PR 3 guarantee that
        # mid-file corruption is never silent.
        from repro.dse import StoreCorruptionWarning

        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "results.jsonl").write_text(
            json.dumps(self._row("aa"), sort_keys=True) + "\n"
            + "GARBAGE{{{\n"
            + json.dumps(self._row("bb"), sort_keys=True))  # no newline
        with pytest.warns(StoreCorruptionWarning, match="torn or corrupt"):
            store = ExperimentStore(store_dir)
        assert sorted(store.fingerprints()) == ["aa", "bb"]
        assert store.skipped_lines == 1

    def test_own_writer_heal_clears_tail_skip(self, tmp_path):
        # Opening our own writer truncates a fragment tail away; the
        # tentative skip must vanish with it, in-process, so status never
        # reports corruption a fresh open would not see.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "results.jsonl").write_text(
            json.dumps(self._row("aa"), sort_keys=True) + "\n" + '{"frag')
        store = ExperimentStore(store_dir)
        assert store.skipped_lines == 1
        store.add(self._row("bb"))
        assert store.skipped_lines == 0
        store.close()
        assert ExperimentStore(store_dir).skipped_lines == 0

    def test_repeated_reload_with_static_torn_tail_counts_once(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "results.jsonl").write_text(
            json.dumps(self._row("aa"), sort_keys=True) + "\n" + '{"torn')
        reader = ExperimentStore(store_dir)
        assert reader.skipped_lines == 1
        for _ in range(3):
            reader.reload()
        assert reader.skipped_lines == 1  # the in-flight tail is not recounted
        assert reader.fingerprints() == ["aa"]


# --------------------------------------------------------------------------- #
class TestProposalParts:
    def _batch(self, proposer=None):
        proposer = proposer or BayesProposer(_space(), seed=0, batch_size=4)
        return proposer.next_batch()

    def test_write_read_round_trip(self, tmp_path):
        ledger = WorkLedger.for_store(tmp_path / "store")
        batch = self._batch()
        write_batch(ledger, batch, {"strategy": "bayes", "seed": 0,
                                    "metric": "fidelity"})
        rebuilt = batch_from_payload(
            ledger.read_item(part_name(batch.number, 1)))
        assert rebuilt.keys == batch.keys
        assert rebuilt.points == batch.points

    def test_parts_split_points_contiguously(self, tmp_path):
        ledger = WorkLedger.for_store(tmp_path / "store")
        batch = self._batch()
        paths = write_batch(ledger, batch, {}, parts=3)
        assert len(paths) == 3
        merged = read_logical_batch(ledger, batch.number)
        assert tuple(merged["keys"]) == batch.keys
        assert merged["points"] == [p.spec() for p in batch.points]
        sizes = [len(ledger.read_item(p.stem)["keys"]) for p in paths]
        assert sum(sizes) == len(batch.keys)
        assert max(sizes) - min(sizes) <= 1

    def test_tampered_batch_is_rejected(self, tmp_path):
        ledger = WorkLedger.for_store(tmp_path / "store")
        batch = self._batch()
        (path,) = write_batch(ledger, batch, {})
        payload = json.loads(path.read_text())
        payload["keys"][0] = 99  # tamper
        path.write_text(json.dumps(payload))
        with pytest.raises(WorkTampered, match="signature mismatch"):
            ledger.read_item(path.stem)

    def test_claim_done_lifecycle(self, tmp_path):
        ledger = WorkLedger.for_store(tmp_path / "store")
        batch = self._batch()
        write_batch(ledger, batch, {}, parts=2)
        first = ledger.claim_next("worker-a")
        second = ledger.claim_next("worker-b")
        assert {first, second} == set(ledger.work_names())
        assert ledger.claim_next("worker-c") is None  # everything leased
        ledger.release(first, "worker-a", done=True)
        assert ledger.is_done(first)
        assert not ledger.all_done()  # no complete marker yet
        ledger.release(second, "worker-b", done=True)
        ledger.write_complete({"batches": 1, "evaluations": 4, "best": None})
        assert ledger.all_done()
        assert ledger.read_complete()["evaluations"] == 4

    def test_corrupt_complete_marker_reads_as_absent(self, tmp_path):
        ledger = WorkLedger.for_store(tmp_path / "store")
        ledger.directory.mkdir(parents=True)
        ledger.complete_path.write_text('{"torn')
        assert ledger.read_complete() is None
        ledger.complete_path.write_text('{"batches": 1}')  # unsigned
        assert ledger.read_complete() is None


# --------------------------------------------------------------------------- #
class TestProposeEvaluateProtocol:
    def _manifest(self, store_dir, strategy):
        space = _space()
        return write_manifest(store_dir, space, mode="adaptive",
                              strategy=strategy, ttl_s=60.0)

    def test_dispatched_run_matches_serial(self, tmp_path):
        """Single-process vs propose/evaluate: identical rows and best."""

        space = _space()
        strategy = {"name": "bayes", "seed": 5, "metric": "fidelity",
                    "batch_size": 2}
        with ExperimentStore(tmp_path / "serial") as store:
            serial_runner = DSERunner(space, store=store)
            serial = serial_runner.run(make_strategy("bayes", seed=5,
                                                     batch_size=2))

        store_dir = tmp_path / "dispatched"
        self._manifest(store_dir, strategy)
        worker = threading.Thread(
            target=run_worker, args=(store_dir,),
            kwargs=dict(owner="threaded-worker"))
        worker.start()
        summary = run_proposer(store_dir, poll_s=0.02)
        worker.join(timeout=120.0)
        assert not worker.is_alive()

        assert summary["evaluations"] == serial_runner.stats["evaluated"]
        best_point = summary["best"]["point"]
        serial_best = serial.best.as_row()
        assert best_point["config"]["gate"] == serial_best["gate"]
        assert best_point["config"]["trap_capacity"] == serial_best["capacity"]
        # Byte-identical canonical exports.
        assert ExperimentStore(tmp_path / "serial").export_rows() == \
            ExperimentStore(store_dir).export_rows()

    def test_killed_proposer_restarts_from_ledger(self, tmp_path):
        """A second proposer run continues/validates from the batch files."""

        space = _space()
        strategy = {"name": "bayes", "seed": 7, "metric": "fidelity",
                    "batch_size": 2}
        store_dir = tmp_path / "store"
        self._manifest(store_dir, strategy)

        # First proposer "dies" after writing batch 1: simulate by writing
        # the batch by hand through the proposer, then evaluating it.
        proposer = make_proposer(space, dict(strategy))
        ledger = WorkLedger.for_store(store_dir)
        batch = proposer.next_batch()
        write_batch(ledger, batch, {"strategy": "bayes", "seed": 7,
                                    "metric": "fidelity"})
        with ExperimentStore(store_dir, writer="adaptive-w") as store:
            DSERunner(space, store=store).evaluate(list(batch.points))

        # The restarted proposer replays batch 1 from the ledger, then runs
        # the remaining batches; a worker thread evaluates them.
        worker = threading.Thread(
            target=run_worker, args=(store_dir,),
            kwargs=dict(owner="threaded-worker"))
        worker.start()
        summary = run_proposer(store_dir, poll_s=0.02)
        worker.join(timeout=120.0)
        assert not worker.is_alive()

        # Identical to an uninterrupted serial run of the same strategy.
        with ExperimentStore(tmp_path / "serial") as store:
            DSERunner(space, store=store).run(
                make_strategy("bayes", seed=7, batch_size=2))
        assert ExperimentStore(store_dir).export_rows() == \
            ExperimentStore(tmp_path / "serial").export_rows()
        assert summary["batches"] >= 2

    def test_proposer_killed_between_part_writes_recovers(self, tmp_path):
        """A partial multi-part batch is repaired on restart, not wedged."""

        space = _space()
        strategy = {"name": "bayes", "seed": 5, "metric": "fidelity",
                    "batch_size": 3, "parts": 3}
        store_dir = tmp_path / "store"
        self._manifest(store_dir, strategy)
        # First proposer "dies" mid-write_batch: only part 1 of 3 landed.
        proposer = make_proposer(space, {k: v for k, v in strategy.items()
                                         if k != "parts"})
        ledger = WorkLedger.for_store(store_dir)
        batch = proposer.next_batch()
        paths = write_batch(ledger, batch, {"strategy": "bayes", "seed": 5,
                                            "metric": "fidelity"}, parts=3)
        for path in paths[1:]:
            path.unlink()  # the parts the kill prevented

        worker = threading.Thread(
            target=run_worker, args=(store_dir,),
            kwargs=dict(owner="threaded-worker"))
        worker.start()
        summary = run_proposer(store_dir, poll_s=0.02)
        worker.join(timeout=120.0)
        assert not worker.is_alive()
        assert summary["evaluations"] == proposer.max_evals

        with ExperimentStore(tmp_path / "serial") as store:
            DSERunner(space, store=store).run(
                make_strategy("bayes", seed=5, batch_size=3))
        assert ExperimentStore(store_dir).export_rows() == \
            ExperimentStore(tmp_path / "serial").export_rows()

    def test_foreign_ledger_is_rejected(self, tmp_path):
        space = _space()
        store_dir = tmp_path / "store"
        self._manifest(store_dir, {"name": "bayes", "seed": 0,
                                   "metric": "fidelity", "batch_size": 2})
        # A ledger written by a *different* seed must be refused, not
        # silently continued.
        other = make_proposer(space, {"name": "bayes", "seed": 1,
                                      "metric": "fidelity", "batch_size": 2})
        write_batch(WorkLedger.for_store(store_dir), other.next_batch(), {})
        with ExperimentStore(store_dir, writer="w") as store:
            DSERunner(space, store=store).evaluate_space()  # rows available
        with pytest.raises(ValueError, match="does not match"):
            run_proposer(store_dir, poll_s=0.01)

    def test_proposer_requires_adaptive_manifest(self, tmp_path):
        write_manifest(tmp_path / "store", _space(), shards=2)
        with pytest.raises(ValueError, match="not an adaptive dispatch"):
            run_proposer(tmp_path / "store")

    def test_manifest_mode_conflicts_are_rejected(self, tmp_path):
        space = _space()
        write_manifest(tmp_path / "store", space, shards=2)
        with pytest.raises(ValueError, match="different dispatch"):
            write_manifest(tmp_path / "store", space, mode="adaptive",
                           strategy={"name": "bayes"})
        with pytest.raises(ValueError, match="needs a strategy"):
            write_manifest(tmp_path / "other", space, mode="adaptive")
        with pytest.raises(ValueError, match="needs a shard count"):
            write_manifest(tmp_path / "other", space)

    def test_kill_one_worker_matches_serial_run(self):
        """The acceptance scenario, via the single source of truth.

        ``examples/dse_adaptive.py --smoke`` (also the CI ``adaptive-smoke``
        job) runs: seeded bayes finds the grid best within a quarter of the
        grid's evaluations, and a 3-worker propose/evaluate dispatch with
        one worker SIGKILLed mid-batch exports byte-identically to the
        serial adaptive run.  This test drives that script exactly like
        ``tests/test_dispatch.py`` drives the shard smoke.
        """

        import subprocess
        import sys

        repo_root = Path(__file__).resolve().parents[1]
        env = os.environ.copy()
        src = str(repo_root / "src")
        env["PYTHONPATH"] = (src if "PYTHONPATH" not in env
                             else src + os.pathsep + env["PYTHONPATH"])
        result = subprocess.run(
            [sys.executable, str(repo_root / "examples" / "dse_adaptive.py"),
             "--smoke"],
            capture_output=True, text=True, env=env, timeout=600.0)
        assert result.returncode == 0, \
            f"smoke failed:\n{result.stdout}\n{result.stderr}"
        assert "SIGKILLed worker" in result.stdout
        assert "byte-identical to the serial run" in result.stdout


# --------------------------------------------------------------------------- #
class TestAdaptiveCli:
    def test_run_strategy_bayes(self, capsys, tmp_path):
        assert main(["dse", "run", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--strategy", "bayes",
                     "--seed", "1", "--batch-size", "2",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "Strategy    : bayes" in out
        assert "Best point" in out

    def test_dispatch_print_only_adaptive(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["dse", "dispatch", "--apps", "QFT", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--strategy", "bayes",
                     "--store", str(store), "--workers", "2",
                     "--print-only"]) == 0
        out = capsys.readouterr().out
        assert "repro dse propose --store" in out
        assert out.count("repro dse worker --store") == 2
        from repro.dse import read_manifest
        manifest = read_manifest(store)
        assert manifest["mode"] == "adaptive"
        assert manifest["strategy"]["name"] == "bayes"
        assert manifest["strategy"]["parts"] == 2
        # The resolved budget is recorded so `dse status --eta` never has
        # to construct a proposer (space size 4 -> floor of two batches).
        assert manifest["strategy"]["max_evals"] == 4

    def test_dispatch_adaptive_runs_proposer_under_the_dispatcher(
            self, capsys, tmp_path):
        # The one Dispatcher runs the proposer in-process and one real
        # worker subprocess; the summary's "trace" key stays the fleet
        # trace merge, so an untraced run reports without it.
        store = tmp_path / "store"
        assert main(["dse", "dispatch", "--apps", "QFT", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--strategy", "bayes",
                     "--store", str(store), "--workers", "1",
                     "--timeout-s", "300"]) == 0
        out = capsys.readouterr().out
        assert "Adaptive dispatch complete: 4 evaluations" in out
        assert "Best point" in out
        assert "Trace merge" not in out
        assert len(ExperimentStore(store)) == 4

    def test_status_eta_unbudgeted_adaptive_reports_unknown(self, capsys,
                                                            tmp_path):
        # A multi-fidelity ladder has no fixed budget; mid-run ETA must say
        # so rather than claim "0 pending" once proxy rows fill the store.
        store_dir = tmp_path / "store"
        write_manifest(store_dir, _space(), mode="adaptive",
                       strategy={"name": "adaptive-halving", "seed": 0})
        with ExperimentStore(store_dir) as store:
            DSERunner(_space(), store=store).evaluate(
                list(_space().points())[:2])
        assert main(["dse", "status", "--store", str(store_dir),
                     "--eta"]) == 0
        out = capsys.readouterr().out
        assert "no fixed evaluation budget" in out
        assert "0 pending" not in out

    def test_propose_without_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no dispatch manifest"):
            main(["dse", "propose", "--store", str(tmp_path / "store")])

    def test_pareto_output_csv(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(_space(), store=store).evaluate(
                list(_space().points())[:2])
        output = tmp_path / "deep" / "frontier.csv"
        assert main(["dse", "pareto", "--store", str(store_dir),
                     "--output", str(output)]) == 0
        assert "Wrote CSV" in capsys.readouterr().out
        lines = output.read_text().splitlines()
        assert lines[0].startswith("application,")
        assert len(lines) >= 2

    def test_pareto_csv_write_failure_exits_nonzero(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(_space(), store=store).evaluate(
                list(_space().points())[:1])
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["dse", "pareto", "--store", str(store_dir),
                     "--output", str(blocker / "frontier.csv")]) == 1
        assert "cannot write" in capsys.readouterr().err
