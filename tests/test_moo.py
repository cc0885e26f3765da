"""Tests for the multi-objective DSE subsystem (repro.dse.moo).

Covers the contracts the subsystem is built around:

* objective vectors canonicalise every named metric to higher-is-better,
  and unknown names fail with the full valid set in the message;
* dominance/archive: the incremental archive equals the brute-force
  frontier for random vector sets (hypothesis) and is insertion-order
  invariant;
* hypervolume: exact 2-D/3-D values agree with hand computation and with
  a seeded Monte-Carlo estimate on random sets, and are order-independent;
* the EHVI/ParEGO proposers and strategies are deterministic for any
  ``--jobs`` value and for serial-vs-dispatched propose/evaluate runs
  (kill-one-worker variant driven through ``examples/dse_moo.py --smoke``,
  the second step of the ``adaptive-smoke`` CI job);
* store rows of a multi-objective run carry the objective list in their
  schema-v3 provenance, and canonical exports strip it;
* the committed golden store export regenerates byte-identically through
  the real ``dse run`` + ``dse export`` CLI.
"""

from __future__ import annotations

import json
import os
import random
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.dse import (
    DSERunner,
    DesignSpace,
    ExperimentStore,
    Shard,
    make_strategy,
    objective_value,
    run_proposer,
    run_worker,
    write_manifest,
)
from repro.dse.adaptive.propose import make_proposer
from repro.dse.moo import (
    EHVIProposer,
    ParEGOProposer,
    ParetoArchive,
    brute_force_frontier,
    cloud_rows,
    dominates,
    hypervolume,
    hypervolume_improvement,
    normalise,
    objective_vector,
    parse_objectives,
    record_frontier,
    records_hypervolume,
    vector_bounds,
)

#: A fast 8-point space evaluated entirely with 8-qubit circuits.
TINY_SPACE = dict(apps=("QFT", "BV"), qubits=(8,), topologies=("L3",),
                  capacities=(6, 8), gates=("AM1", "FM"), reorders=("GS",))

OBJECTIVES = ("fidelity", "runtime")


def _space() -> DesignSpace:
    return DesignSpace(**TINY_SPACE)


def _rows(records):
    return [record.as_row() for record in records]


#: Hypothesis strategy: small collections of small-dimensional vectors.
def vector_sets(min_dim=2, max_dim=4, max_points=12):
    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=6)
                        for _ in range(dim)]).map(
                lambda t: tuple(float(v) for v in t)),
            min_size=1, max_size=max_points))


# --------------------------------------------------------------------------- #
class TestObjectives:
    def test_unknown_objective_lists_valid_set(self):
        record = DSERunner(_space()).evaluate(
            [next(_space().points())])[0]
        with pytest.raises(ValueError) as err:
            objective_value(record, "latency")
        message = str(err.value)
        for name in ("fidelity", "runtime", "comm_fraction",
                     "shuttles_per_2q"):
            assert name in message

    def test_new_objectives_are_selectable_and_canonical(self):
        records = DSERunner(_space()).evaluate(list(_space().points()))
        for record in records:
            comm = objective_value(record, "comm_fraction")
            shuttles = objective_value(record, "shuttles_per_2q")
            # Canonical higher-is-better: both overheads enter negated.
            assert comm <= 0.0
            assert shuttles <= 0.0
            assert comm == -record.result.communication_seconds / \
                record.result.duration_seconds
            assert shuttles == -record.num_shuttles / \
                record.result.num_ms_gates

    def test_objective_vector_matches_scalars(self):
        record = DSERunner(_space()).evaluate([next(_space().points())])[0]
        names = ("fidelity", "runtime", "comm_fraction", "shuttles_per_2q")
        vector = objective_vector(record, names)
        assert vector == tuple(objective_value(record, n) for n in names)

    def test_parse_objectives(self):
        assert parse_objectives("fidelity, runtime") == OBJECTIVES
        assert parse_objectives(["runtime", "fidelity"]) == \
            ("runtime", "fidelity")
        with pytest.raises(ValueError, match="unknown objective"):
            parse_objectives("fidelity,latency")
        with pytest.raises(ValueError, match="duplicate"):
            parse_objectives("fidelity,fidelity")
        with pytest.raises(ValueError, match="at least two"):
            parse_objectives("fidelity")

    def test_normalise_and_bounds(self):
        vectors = [(0.0, 10.0), (1.0, 20.0), (0.5, 10.0)]
        bounds = vector_bounds(vectors)
        assert bounds == ((0.0, 1.0), (10.0, 20.0))
        assert normalise((0.5, 15.0), bounds) == (0.5, 0.5)
        # Degenerate objective -> 0.5; out-of-range values clip to the box.
        assert normalise((2.0, 5.0), ((0.0, 1.0), (3.0, 3.0))) == (1.0, 0.5)

    def test_cli_metric_choices_mirror_objectives(self):
        # A new objective cannot be selectable via --objectives but
        # rejected by --metric of `dse run` or `dse dispatch`.
        import argparse

        from repro.cli import build_parser
        from repro.dse.pareto import OBJECTIVES as CANONICAL

        def subcommand(parser, name):
            return next(action.choices[name] for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        for command in ("run", "dispatch"):
            parser = subcommand(subcommand(build_parser(), "dse"), command)
            choices = next(action.choices for action in parser._actions
                           if "--metric" in action.option_strings)
            assert tuple(choices) == CANONICAL

    def test_metric_cli_run_accepts_new_objectives(self, capsys):
        assert main(["dse", "run", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--metric", "shuttles_per_2q",
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "Top 2 points by shuttles_per_2q" in out


# --------------------------------------------------------------------------- #
class TestDominanceAndArchive:
    def test_dominates_basics(self):
        assert dominates((1.0, 1.0), (0.0, 0.0))
        assert dominates((1.0, 0.0), (0.0, 0.0))
        assert not dominates((1.0, 0.0), (0.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))  # equality: neither
        with pytest.raises(ValueError, match="dimension"):
            dominates((1.0,), (1.0, 2.0))

    @given(vector_sets())
    @settings(max_examples=60, deadline=None)
    def test_archive_equals_brute_force_frontier(self, vectors):
        archive = ParetoArchive(len(vectors[0]))
        archive.update(list(enumerate(vectors)))
        expected = {vectors[i] for i in brute_force_frontier(vectors)}
        assert set(archive.vectors()) == expected
        # Archive never holds a dominated or duplicate vector.
        kept = archive.vectors()
        assert len(set(kept)) == len(kept)
        for a in kept:
            assert not any(dominates(b, a) for b in kept)

    @given(vector_sets(), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_archive_is_insertion_order_invariant(self, vectors, seed):
        ordered = ParetoArchive(len(vectors[0]))
        ordered.update(list(enumerate(vectors)))
        shuffled_items = list(enumerate(vectors))
        random.Random(seed).shuffle(shuffled_items)
        shuffled = ParetoArchive(len(vectors[0]))
        shuffled.update(shuffled_items)
        assert set(ordered.vectors()) == set(shuffled.vectors())

    def test_equal_vectors_keep_the_first_key(self):
        archive = ParetoArchive(2)
        assert archive.add("a", (1.0, 2.0))
        assert not archive.add("b", (1.0, 2.0))
        assert archive.keys() == ["a"]

    def test_accepted_point_evicts_dominated(self):
        archive = ParetoArchive(2)
        archive.add("low", (0.0, 0.0))
        archive.add("mid", (1.0, 0.5))
        assert archive.add("high", (2.0, 1.0))
        assert archive.keys() == ["high"]
        assert not archive.add("dominated", (1.5, 0.5))
        assert archive.add("other", (0.0, 2.0))
        assert archive.keys() == ["high", "other"]

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            ParetoArchive(0)
        archive = ParetoArchive(2)
        with pytest.raises(ValueError, match="2-D"):
            archive.add("a", (1.0, 2.0, 3.0))


# --------------------------------------------------------------------------- #
class TestHypervolume:
    def test_known_2d_values(self):
        ref = (0.0, 0.0)
        assert hypervolume([(1.0, 1.0)], ref) == 1.0
        # Two trading-off points: 2x1 + 1x2 minus the 1x1 overlap.
        assert hypervolume([(2.0, 1.0), (1.0, 2.0)], ref) == 3.0
        # A dominated point adds nothing.
        assert hypervolume([(2.0, 1.0), (1.0, 2.0), (0.5, 0.5)], ref) == 3.0
        # Points at or below the reference contribute nothing.
        assert hypervolume([(0.0, 5.0), (-1.0, 2.0)], ref) == 0.0
        assert hypervolume([], ref) == 0.0

    def test_known_3d_values(self):
        ref = (0.0, 0.0, 0.0)
        assert hypervolume([(1.0, 1.0, 1.0)], ref) == 1.0
        assert hypervolume([(2.0, 1.0, 1.0), (1.0, 2.0, 1.0)], ref) == 3.0
        # Three mutually non-dominated unit-ish boxes, hand-computed via
        # inclusion-exclusion: 8 + 8 + 8 - 4 - 4 - 4 + 2 = 14.
        points = [(2.0, 2.0, 2.0)]
        assert hypervolume(points + [(1.0, 1.0, 1.0)], ref) == 8.0

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="at least two"):
            hypervolume([(1.0,)], (0.0,))
        with pytest.raises(ValueError, match="mismatch"):
            hypervolume([(1.0, 2.0, 3.0)], (0.0, 0.0))

    @given(vector_sets(min_dim=2, max_dim=3, max_points=8),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_monte_carlo_agreement(self, vectors, seed):
        """Exact 2-D/3-D hypervolume matches a seeded MC estimate."""

        dim = len(vectors[0])
        ref = (0.0,) * dim
        high = 7.0  # vectors draw from 0..6, so the box [0,7]^d covers all
        exact = hypervolume(vectors, ref)
        rng = random.Random(seed)
        trials = 4000
        hits = 0
        for _ in range(trials):
            sample = tuple(rng.uniform(0.0, high) for _ in range(dim))
            if any(all(s < v for s, v in zip(sample, vector))
                   for vector in vectors):
                hits += 1
        estimate = (hits / trials) * high ** dim
        tolerance = 4.0 * high ** dim / (trials ** 0.5)  # ~4 sigma
        assert abs(exact - estimate) <= tolerance

    @given(vector_sets(min_dim=2, max_dim=3, max_points=10),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_order_independence_and_monotonicity(self, vectors, seed):
        ref = (-1.0,) * len(vectors[0])
        shuffled = list(vectors)
        random.Random(seed).shuffle(shuffled)
        assert hypervolume(vectors, ref) == hypervolume(shuffled, ref)
        # Adding any point never decreases the hypervolume.
        extra = tuple(float(v) for v in range(len(vectors[0])))
        assert hypervolume_improvement(vectors, extra, ref) >= 0.0

    @given(vector_sets(min_dim=2, max_dim=3, max_points=10),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_improvement_equals_hypervolume_difference(self, vectors, seed):
        """The exclusive-contribution fast path matches hv(S+p) - hv(S)."""

        dim = len(vectors[0])
        ref = (-1.0,) * dim
        rng = random.Random(seed)
        candidate = tuple(float(rng.randint(0, 6)) for _ in range(dim))
        fast = hypervolume_improvement(vectors, candidate, ref)
        slow = hypervolume(list(vectors) + [candidate], ref) - \
            hypervolume(vectors, ref)
        assert fast == pytest.approx(max(0.0, slow), rel=1e-9, abs=1e-9)

    def test_improvement_of_dominated_point_is_zero(self):
        ref = (0.0, 0.0)
        vectors = [(2.0, 2.0)]
        assert hypervolume_improvement(vectors, (1.0, 1.0), ref) == 0.0
        # (3,1) adds only the 1x1 strip beyond x=2: hv 4 -> 5.
        assert hypervolume_improvement(vectors, (3.0, 1.0), ref) == 1.0


# --------------------------------------------------------------------------- #
class TestMOOProposers:
    @pytest.mark.parametrize("cls", [EHVIProposer, ParEGOProposer])
    def test_budget_and_no_repeats(self, cls):
        space = _space()
        proposer = cls(space, seed=0, batch_size=2, max_evals=6)
        seen = []
        while True:
            batch = proposer.next_batch()
            if batch is None:
                break
            seen.extend(batch.keys)
            proposer.ingest(batch, [(0.5, -0.1)] * len(batch.keys))
        assert len(seen) == len(set(seen)) == 6

    @pytest.mark.parametrize("cls", [EHVIProposer, ParEGOProposer])
    def test_proposal_sequence_is_deterministic(self, cls):
        space = _space()
        values = {index: (1.0 / (index + 1), -float(index % 3))
                  for index in range(space.size)}
        sequences = []
        for _ in range(2):
            proposer = cls(space, seed=3, batch_size=2, max_evals=6)
            sequence = []
            while True:
                batch = proposer.next_batch()
                if batch is None:
                    break
                sequence.append(batch.keys)
                proposer.ingest(batch, [values[k] for k in batch.keys])
            sequences.append((sequence, proposer.best(),
                              proposer.frontier()))
        assert sequences[0] == sequences[1]

    def test_frontier_is_nondominated_subset_of_observed(self):
        space = _space()
        proposer = EHVIProposer(space, seed=1, batch_size=4, max_evals=8)
        values = {index: (float(index % 3), -float(index % 5))
                  for index in range(space.size)}
        while True:
            batch = proposer.next_batch()
            if batch is None:
                break
            proposer.ingest(batch, [values[k] for k in batch.keys])
        frontier = proposer.frontier()
        observed = {key: values[key] for key in
                    [k for k, _ in frontier]}
        for key, vector in frontier:
            assert vector == observed[key]
            assert not any(dominates(values[other], vector)
                           for other, _ in frontier)

    def test_best_is_first_objective_tie_to_earliest(self):
        space = _space()
        proposer = ParEGOProposer(space, seed=0, batch_size=4, max_evals=4)
        batch = proposer.next_batch()
        proposer.ingest(batch, [(0.7, -1.0), (0.9, -2.0),
                                (0.9, -1.0), (0.1, 0.0)])
        assert proposer.best() == (batch.keys[1], 0.9)

    def test_ingest_validation(self):
        space = _space()
        proposer = EHVIProposer(space, seed=0, batch_size=2)
        batch = proposer.next_batch()
        with pytest.raises(ValueError, match="values"):
            proposer.ingest(batch, [(0.5, -0.1)])
        with pytest.raises(ValueError, match="2-D"):
            proposer.ingest(batch, [(0.5,), (0.2,)])

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            EHVIProposer(_space(), batch_size=0)
        with pytest.raises(ValueError, match="unknown objective"):
            EHVIProposer(_space(), objectives=("fidelity", "latency"))
        with pytest.raises(ValueError, match="unknown adaptive strategy"):
            make_proposer(_space(), {"name": "moo"})


# --------------------------------------------------------------------------- #
class TestMOOStrategies:
    @pytest.mark.parametrize("name", ["ehvi", "parego"])
    def test_deterministic_for_any_jobs(self, dse_run_output, name):
        flags = ["--strategy", name, "--batch-size", "2"]
        assert dse_run_output(*flags, jobs=2) == \
            dse_run_output(*flags, jobs=1)

    def test_reuses_store_across_runs(self):
        runner = DSERunner(_space())
        first = runner.run(make_strategy("ehvi", seed=2, batch_size=2))
        rerun = DSERunner(_space(), store=runner.store)
        second = rerun.run(make_strategy("ehvi", seed=2, batch_size=2))
        assert rerun.stats["evaluated"] == 0
        assert _rows(first.evaluated) == _rows(second.evaluated)
        assert _rows(first.frontier) == _rows(second.frontier)

    def test_refuses_static_shards(self):
        runner = DSERunner(_space(), shard=Shard(1, 2))
        with pytest.raises(ValueError, match="cannot be sharded"):
            runner.run(make_strategy("ehvi"))

    def test_objectives_flag_rejected_for_scalar_strategies(self):
        with pytest.raises(ValueError, match="only applies"):
            make_strategy("grid", objectives=("fidelity", "runtime"))

    def test_metric_flag_rejected_for_moo_strategies(self):
        # Symmetric with the check above: a silently dropped --metric
        # would search objectives the caller never asked for.
        with pytest.raises(ValueError, match="does not apply"):
            make_strategy("ehvi", metric="runtime")
        with pytest.raises(ValueError, match="does not apply"):
            make_strategy("parego", metric="comm_fraction")

    def test_custom_objectives_shape_the_archive(self):
        result = DSERunner(_space()).run(
            make_strategy("parego", seed=1, batch_size=2,
                          objectives=("fidelity", "shuttles_per_2q")))
        assert result.frontier
        vectors = [objective_vector(r, ("fidelity", "shuttles_per_2q"))
                   for r in result.frontier]
        for vector in vectors:
            assert not any(dominates(other, vector) for other in vectors
                           if other != vector)

    def test_provenance_records_objectives(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            DSERunner(_space(), store=store).run(
                make_strategy("ehvi", seed=9, batch_size=2))
        reloaded = ExperimentStore(tmp_path / "store")
        stamps = [row.get("provenance") for row in reloaded.rows()]
        assert all(stamp is not None for stamp in stamps)
        assert all(stamp["strategy"] == "ehvi" for stamp in stamps)
        assert all(stamp["objectives"] == ["fidelity", "runtime"]
                   for stamp in stamps)
        # Canonical exports strip provenance, as for every schema-v3 row.
        assert all("provenance" not in row
                   for row in reloaded.export_rows())


# --------------------------------------------------------------------------- #
class TestRecordFrontiers:
    def _records(self):
        return DSERunner(_space()).evaluate(list(_space().points()))

    def test_record_frontier_matches_brute_force(self):
        records = self._records()
        vectors = [objective_vector(r, OBJECTIVES) for r in records]
        expected = {id(records[i]) for i in brute_force_frontier(vectors)}
        frontier = record_frontier(records, OBJECTIVES)
        assert {id(r) for r in frontier} == expected
        # Best-first: descending by vector.
        frontier_vectors = [objective_vector(r, OBJECTIVES)
                            for r in frontier]
        assert frontier_vectors == sorted(frontier_vectors, reverse=True)

    def test_cloud_rows_mark_dominated_and_sort_stably(self):
        records = self._records()
        rows = cloud_rows(records, OBJECTIVES)
        assert len(rows) == len(records)
        # Grouped by app (sorted), best-first within each app.
        apps = [row["application"] for row in rows]
        assert apps == sorted(apps)
        for app in set(apps):
            app_vectors = [tuple(row[f"objective_{name}"]
                                 for name in OBJECTIVES)
                           for row in rows if row["application"] == app]
            assert app_vectors == sorted(app_vectors, reverse=True)
        # The non-dominated rows of each app are exactly its frontier.
        for app in set(apps):
            app_records = [r for r in records if r.application == app]
            expected = len(record_frontier(app_records, OBJECTIVES))
            kept = sum(1 for row in rows
                       if row["application"] == app and not row["dominated"])
            assert kept == expected
        # Input order does not matter.
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert cloud_rows(shuffled, OBJECTIVES) == rows

    def test_cloud_rows_tied_vectors_frontier_row_first(self):
        # Two records with byte-identical objective vectors: the archive
        # keeps the earlier one (dominated=False); the ordering must put
        # that frontier row before its tied dominated duplicate.
        class Stub:
            def __init__(self, name, fidelity, runtime):
                self.application = "app"
                self.fidelity = fidelity
                self.duration_seconds = runtime
                self._name = name

            def as_row(self):
                return {"application": self.application, "name": self._name}

        first = Stub("first", 0.9, 1.0)
        twin = Stub("twin", 0.9, 1.0)
        other = Stub("other", 0.8, 0.5)
        rows = cloud_rows([first, twin, other], OBJECTIVES)
        assert [row["name"] for row in rows] == ["first", "twin", "other"]
        assert [row["dominated"] for row in rows] == [False, True, False]

    def test_records_hypervolume_grows_with_the_frontier(self):
        records = self._records()
        frontier = record_frontier(records, OBJECTIVES)
        full = records_hypervolume(records, OBJECTIVES)
        assert full > 0.0
        assert records_hypervolume([], OBJECTIVES) == 0.0
        if len(frontier) < len(records):
            dominated_only = [r for r in records if r not in frontier]
            assert records_hypervolume(dominated_only + frontier,
                                       OBJECTIVES) == full


# --------------------------------------------------------------------------- #
class TestMOOProtocol:
    def test_dispatched_run_matches_serial(self, tmp_path):
        """Single-process vs propose/evaluate: identical rows and frontier."""

        space = _space()
        strategy = {"name": "ehvi", "seed": 5,
                    "objectives": ["fidelity", "runtime"], "batch_size": 2}
        with ExperimentStore(tmp_path / "serial") as store:
            serial_runner = DSERunner(space, store=store)
            serial = serial_runner.run(
                make_strategy("ehvi", seed=5, batch_size=2))

        store_dir = tmp_path / "dispatched"
        write_manifest(store_dir, space, mode="adaptive",
                       strategy=strategy, ttl_s=60.0)
        worker = threading.Thread(
            target=run_worker, args=(store_dir,),
            kwargs=dict(owner="threaded-worker"))
        worker.start()
        summary = run_proposer(store_dir, poll_s=0.02)
        worker.join(timeout=120.0)
        assert not worker.is_alive()

        assert summary["evaluations"] == serial_runner.stats["evaluated"]
        assert summary["objectives"] == ["fidelity", "runtime"]
        # The complete marker's frontier matches the serial archive.
        serial_frontier = sorted(
            (row["application"], row["capacity"], row["gate"])
            for row in _rows(serial.frontier))
        dispatched_frontier = sorted(
            (entry["point"]["app"].lower() + "8",
             entry["point"]["config"]["trap_capacity"],
             entry["point"]["config"]["gate"])
            for entry in summary["frontier"])
        assert dispatched_frontier == serial_frontier
        # Byte-identical canonical exports.
        assert ExperimentStore(tmp_path / "serial").export_rows() == \
            ExperimentStore(store_dir).export_rows()
        # Raw rows agree too: dispatched workers stamp the same schema-v3
        # provenance (objectives included) as the in-process driver.
        serial_rows = {row["fingerprint"]: row["provenance"] for row in
                       ExperimentStore(tmp_path / "serial").rows()}
        dispatched_rows = {row["fingerprint"]: row["provenance"] for row in
                           ExperimentStore(store_dir).rows()}
        assert dispatched_rows == serial_rows
        assert all(stamp["objectives"] == ["fidelity", "runtime"]
                   for stamp in dispatched_rows.values())

    def test_kill_one_worker_matches_serial_run(self):
        """The acceptance scenario, via the single source of truth.

        ``examples/dse_moo.py --smoke`` (also the CI ``adaptive-smoke`` job)
        runs: seeded EHVI recovers the 24-point grid's exact 2-D frontier
        in under half the grid's evaluations, and a 3-worker
        propose/evaluate dispatch with one worker SIGKILLed mid-batch
        exports byte-identically to the serial run.  This test drives that
        script exactly like ``tests/test_adaptive.py`` drives the adaptive
        smoke.
        """

        import subprocess
        import sys

        repo_root = Path(__file__).resolve().parents[1]
        env = os.environ.copy()
        src = str(repo_root / "src")
        env["PYTHONPATH"] = (src if "PYTHONPATH" not in env
                             else src + os.pathsep + env["PYTHONPATH"])
        result = subprocess.run(
            [sys.executable, str(repo_root / "examples" / "dse_moo.py"),
             "--smoke"],
            capture_output=True, text=True, env=env, timeout=600.0)
        assert result.returncode == 0, \
            f"smoke failed:\n{result.stdout}\n{result.stderr}"
        assert "SIGKILLed worker" in result.stdout
        assert "byte-identical to the serial run" in result.stdout


# --------------------------------------------------------------------------- #
class TestGoldenStoreExport:
    def test_cli_regenerates_the_committed_export_byte_identically(
            self, tmp_path):
        """``dse run`` + ``dse export`` reproduce tests/data's golden bytes.

        The scaled-down first step of the ROADMAP "figure regeneration
        through a committed experiment store" item: CI diffs stored
        metrics instead of trusting the run that produced them.  Any
        intentional output change must regenerate the golden via
        ``tests/data/regen_store_export.py``.
        """

        import sys

        data_dir = Path(__file__).parent / "data"
        sys.path.insert(0, str(data_dir))
        try:
            from regen_store_export import GOLDEN_PATH, regenerate
        finally:
            sys.path.pop(0)
        fresh = tmp_path / "export.json"
        regenerate(fresh)
        assert fresh.read_bytes() == GOLDEN_PATH.read_bytes()


# --------------------------------------------------------------------------- #
class TestMOOCli:
    def test_run_strategy_ehvi_prints_frontier(self, capsys, tmp_path):
        assert main(["dse", "run", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--strategy", "ehvi",
                     "--seed", "1", "--batch-size", "2",
                     "--objectives", "fidelity,runtime",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "Strategy    : ehvi" in out
        assert "objectives fidelity,runtime" in out
        assert "Pareto frontier over (fidelity, runtime)" in out
        assert "normalised hypervolume" in out

    def test_run_output_includes_frontier(self, capsys, tmp_path):
        output = tmp_path / "run.json"
        assert main(["dse", "run", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--strategy", "parego",
                     "--seed", "2", "--batch-size", "2",
                     "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["strategy"]["objectives"] == ["fidelity", "runtime"]
        assert payload["frontier"]
        assert payload["trace"][0]["hypervolume"] >= 0.0

    def test_run_rejects_objectives_for_scalar_strategy(self, capsys):
        with pytest.raises(SystemExit, match="only applies"):
            main(["dse", "run", "--apps", "QFT", "--qubits", "8",
                  "--topologies", "L3", "--capacities", "6",
                  "--strategy", "grid", "--objectives", "fidelity,runtime"])

    def test_pareto_objectives_and_hypervolume(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(_space(), store=store).evaluate(
                list(_space().points()))
        assert main(["dse", "pareto", "--store", str(store_dir),
                     "--objectives", "fidelity,runtime,shuttles_per_2q",
                     "--hypervolume"]) == 0
        out = capsys.readouterr().out
        assert "objectives fidelity,runtime,shuttles_per_2q" in out
        assert "normalised hypervolume:" in out

    def test_pareto_rejects_unknown_objective(self, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(_space(), store=store).evaluate(
                [next(_space().points())])
        with pytest.raises(SystemExit, match="unknown objective"):
            main(["dse", "pareto", "--store", str(store_dir),
                  "--objectives", "fidelity,latency"])

    def test_pareto_csv_is_full_cloud_with_dominated_column(
            self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(_space(), store=store).evaluate(
                list(_space().points()))
        output = tmp_path / "cloud.csv"
        assert main(["dse", "pareto", "--store", str(store_dir),
                     "--output", str(output)]) == 0
        assert "Wrote CSV" in capsys.readouterr().out
        lines = output.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "application"
        assert "dominated" in header
        assert "objective_fidelity" in header
        assert "objective_runtime" in header
        # Every stored point appears, not only the frontier.
        assert len(lines) == 1 + _space().size
        dominated = [line.split(",")[header.index("dominated")]
                     for line in lines[1:]]
        assert "True" in dominated and "False" in dominated

    def test_dispatch_rejects_metric_for_moo_strategy(self, tmp_path):
        with pytest.raises(SystemExit, match="does not apply"):
            main(["dse", "dispatch", "--apps", "QFT", "--qubits", "8",
                  "--topologies", "L3", "--capacities", "6,8",
                  "--strategy", "ehvi", "--metric", "runtime",
                  "--store", str(tmp_path / "store"), "--print-only"])

    @pytest.mark.parametrize("strategy", ["grid", "bayes"])
    def test_dispatch_rejects_objectives_for_scalar_strategy(
            self, strategy, tmp_path):
        # Symmetric with `dse run`: --objectives on a scalar dispatch
        # must error, not silently run a single-objective search.
        with pytest.raises(SystemExit, match="only applies"):
            main(["dse", "dispatch", "--apps", "QFT", "--qubits", "8",
                  "--topologies", "L3", "--capacities", "6,8",
                  "--strategy", strategy,
                  "--objectives", "fidelity,runtime",
                  "--store", str(tmp_path / "store"), "--print-only"])

    def test_dispatch_print_only_moo(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["dse", "dispatch", "--apps", "QFT", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--gates", "AM1,FM", "--strategy", "ehvi",
                     "--objectives", "runtime,fidelity",
                     "--store", str(store), "--workers", "2",
                     "--print-only"]) == 0
        out = capsys.readouterr().out
        assert "repro dse propose --store" in out
        from repro.dse import read_manifest
        manifest = read_manifest(store)
        assert manifest["mode"] == "adaptive"
        assert manifest["strategy"]["name"] == "ehvi"
        assert manifest["strategy"]["objectives"] == ["runtime", "fidelity"]
        # The resolved default budget (half the grid, floored at two
        # batches) is recorded for `dse status --eta`.
        assert manifest["strategy"]["max_evals"] == 4
