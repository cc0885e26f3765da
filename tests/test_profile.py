"""Tests for span-derived profiling (repro.obs.profile), the v2 bench
artefact schema, and the flush-on-failure trace writer.

The acceptance bar pinned here: profiles are deterministic pure
functions of the span list, and per-stage self times telescope exactly
to the traced wall time.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    build_profile,
    collapsed_stacks,
    disable_tracing,
    format_profile,
    parse_spans_jsonl,
    reset_registry,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Each test starts with tracing off and a fresh process-wide registry."""

    disable_tracing()
    reset_registry()
    yield
    disable_tracing()
    reset_registry()


def _span(span_id, name, start, duration, parent=None):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "pid": 1, "tid": 1, "start_s": start, "duration_s": duration,
            "attrs": {}}


def nested_trace():
    """root(10s) -> compile(6s) -> route(4s); root -> sim(3s)."""

    return [
        _span(1, "root", 0.0, 10.0),
        _span(2, "compile", 0.5, 6.0, parent=1),
        _span(3, "compile.route", 1.0, 4.0, parent=2),
        _span(4, "sim", 7.0, 3.0, parent=1),
    ]


# --------------------------------------------------------------------------- #
class TestBuildProfile:
    def test_self_times_telescope_to_wall(self):
        profile = build_profile(nested_trace())
        assert profile["wall_s"] == pytest.approx(10.0)
        total_self = sum(node["self_s"] for node in profile["tree"])
        assert total_self == pytest.approx(profile["wall_s"], abs=1e-12)
        by_path = {node["path"]: node for node in profile["tree"]}
        assert by_path["root"]["self_s"] == pytest.approx(1.0)
        assert by_path["root;compile"]["self_s"] == pytest.approx(2.0)
        assert by_path["root;compile;compile.route"]["self_s"] == \
            pytest.approx(4.0)
        assert by_path["root;sim"]["self_s"] == pytest.approx(3.0)

    def test_flat_table_and_quantiles(self):
        profile = build_profile(nested_trace())
        table = profile["names"]
        assert table["compile"]["count"] == 1
        assert table["compile"]["total_s"] == pytest.approx(6.0)
        assert table["compile"]["self_s"] == pytest.approx(2.0)
        # Bounded-bucket quantiles are present and bracket the sample.
        assert table["compile"]["p50"] == pytest.approx(6.0, rel=0.1)
        assert table["compile"]["p99"] == pytest.approx(6.0, rel=0.1)

    def test_recursion_counts_total_once(self):
        spans = [
            _span(1, "point", 0.0, 8.0),
            _span(2, "point", 1.0, 4.0, parent=1),
            _span(3, "point", 2.0, 1.0, parent=2),
        ]
        profile = build_profile(spans)
        row = profile["names"]["point"]
        assert row["count"] == 3
        # Nested same-name calls fold into the outermost duration.
        assert row["total_s"] == pytest.approx(8.0)
        assert row["self_s"] == pytest.approx(8.0)
        assert profile["wall_s"] == pytest.approx(8.0)

    def test_orphan_spans_become_roots(self):
        # A crashed run: the parent span never flushed.
        spans = [_span(5, "compile.route", 1.0, 4.0, parent=99)]
        profile = build_profile(spans)
        assert profile["wall_s"] == pytest.approx(4.0)
        assert profile["tree"][0]["path"] == "compile.route"

    def test_deterministic_under_input_order(self):
        spans = nested_trace()
        a = json.dumps(build_profile(spans), sort_keys=True)
        b = json.dumps(build_profile(list(reversed(spans))), sort_keys=True)
        assert a == b
        assert format_profile(build_profile(spans)) == \
            format_profile(build_profile(list(reversed(spans))))

    def test_critical_path_descends_longest_child(self):
        profile = build_profile(nested_trace())
        path = [node["name"] for node in profile["critical_path"]]
        assert path == ["root", "compile", "compile.route"]

    def test_empty_trace(self):
        profile = build_profile([])
        assert profile["num_spans"] == 0
        assert profile["wall_s"] == 0.0
        assert profile["critical_path"] == []
        assert "0 spans" in format_profile(profile)


class TestCollapsedStacks:
    def test_format_and_negative_clamp(self):
        tree = {("a",): {"count": 1, "total_s": 2.0, "self_s": 1.5},
                ("a", "b"): {"count": 1, "total_s": 0.5, "self_s": -0.25},
                ("c",): {"count": 1, "total_s": 0.0, "self_s": 0.0}}
        lines = collapsed_stacks(tree)
        # Negative self (thread overlap) is floored, zero rows dropped.
        assert lines == ["a 1500000"]

    def test_profile_collapsed_matches_tree(self):
        profile = build_profile(nested_trace())
        assert "root;compile;compile.route 4000000" in profile["collapsed"]


class TestParseSpansJsonl:
    def test_round_trip_path_and_text(self, tmp_path):
        text = "\n".join(json.dumps(record) for record in nested_trace())
        path = tmp_path / "t.spans.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        assert parse_spans_jsonl(path) == parse_spans_jsonl(text + "\n")
        assert len(parse_spans_jsonl(path)) == 4

    def test_rejects_non_span_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a span"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            parse_spans_jsonl(path)


# --------------------------------------------------------------------------- #
class TestProfileCLI:
    def test_profile_of_traced_run(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["run", "--app", "BV", "--qubits", "6",
                     "--capacity", "8", "--topology", "L2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["profile", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "traced wall time" in report
        assert "critical path:" in report
        out_json = tmp_path / "profile.json"
        assert main(["profile", str(trace),
                     "--output", str(out_json)]) == 0
        capsys.readouterr()
        profile = json.loads(out_json.read_text(encoding="utf-8"))
        total_self = sum(node["self_s"] for node in profile["tree"])
        # Per-stage totals sum to the traced wall within rounding.
        assert total_self == pytest.approx(profile["wall_s"], abs=1e-9)
        # Deterministic: profiling the same trace twice renders the same
        # report bytes.
        assert main(["profile", str(trace)]) == 0
        assert capsys.readouterr().out == report

    def test_collapsed_output(self, tmp_path, capsys):
        spans = tmp_path / "t.spans.jsonl"
        spans.write_text(
            "\n".join(json.dumps(r) for r in nested_trace()) + "\n",
            encoding="utf-8")
        collapsed = tmp_path / "stacks.txt"
        assert main(["profile", str(spans),
                     "--collapsed", str(collapsed)]) == 0
        lines = collapsed.read_text(encoding="utf-8").splitlines()
        assert "root;compile;compile.route 4000000" in lines


# --------------------------------------------------------------------------- #
class TestFlushOnFailure:
    def test_trace_written_when_command_raises(self, tmp_path, monkeypatch,
                                               capsys):
        import repro.cli as cli

        def boom(args):
            from repro.obs import span
            with span("doomed.phase"):
                pass
            raise RuntimeError("mid-command crash")

        monkeypatch.setitem(cli._COMMANDS, "run", boom) \
            if hasattr(cli, "_COMMANDS") else \
            monkeypatch.setattr(cli, "_cmd_run", boom)
        trace = tmp_path / "crash.json"
        with pytest.raises(RuntimeError):
            main(["run", "--app", "BV", "--qubits", "6",
                  "--capacity", "8", "--topology", "L2",
                  "--trace", str(trace)])
        # The partial trace still landed -- all three artefacts.
        assert trace.exists()
        assert trace.with_suffix("").with_suffix(".spans.jsonl").exists() or \
            Path(str(trace).replace(".json", ".spans.jsonl")).exists()
        out = capsys.readouterr().err + capsys.readouterr().out
        spans = parse_spans_jsonl(
            Path(str(trace).replace(".json", ".spans.jsonl")))
        assert any(record["name"] == "doomed.phase" for record in spans)


# --------------------------------------------------------------------------- #
class TestBenchArtefactSchema:
    def test_record_bench_embeds_meta(self, tmp_path, monkeypatch):
        import benchmarks._common as common

        monkeypatch.setattr(common, "BENCH_DATA_DIR", tmp_path)
        common.record_bench("unit", "sectionA", {"metric_s": 1.25})
        artefact = json.loads(
            (tmp_path / "BENCH_unit.json").read_text(encoding="utf-8"))
        assert artefact["bench_schema"] == common.BENCH_SCHEMA_VERSION
        meta = artefact["sections"]["sectionA"]["_meta"]
        assert set(meta) == {"config_fingerprint", "metrics", "trace_schema"}
        assert isinstance(meta["config_fingerprint"], str)
        # The fingerprint is stable for identical payloads.
        common.record_bench("unit", "sectionA", {"metric_s": 1.25})
        again = json.loads(
            (tmp_path / "BENCH_unit.json").read_text(encoding="utf-8"))
        assert again["sections"]["sectionA"]["_meta"]["config_fingerprint"] \
            == meta["config_fingerprint"]
