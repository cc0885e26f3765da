"""Unit tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("info", "table1", "table2", "run", "sweep", "device"):
            args = parser.parse_args([command] if command not in ("run", "sweep")
                                     else {"run": ["run", "--app", "BV"],
                                           "sweep": ["sweep", "--figure", "6"]}[command])
            assert args.command == command

    def test_run_requires_app(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
        capsys.readouterr()

    def test_invalid_gate_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "BV", "--gate", "XY"])
        capsys.readouterr()

    def test_strategy_choices_match_the_strategy_table(self):
        """``dse run`` and ``dse dispatch`` offer every strategy: the work
        ledger runs them all."""

        from repro.dse.strategies import STRATEGY_NAMES

        def subcommand(parser, name):
            return next(action.choices[name] for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        def choices(command):
            parser = subcommand(subcommand(build_parser(), "dse"), command)
            return tuple(next(action.choices for action in parser._actions
                              if "--strategy" in action.option_strings))

        assert choices("run") == choices("dispatch") == STRATEGY_NAMES


class TestCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "QCCDSim" in out
        assert "QAOA" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Crossing X-junction" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Supremacy" in out
        assert "Communication pattern" in out

    def test_device(self, capsys):
        assert main(["device", "--topology", "G2x3", "--capacity", "18"]) == 0
        out = capsys.readouterr().out
        assert "6 traps" in out
        assert "J1" in out

    def test_run_small_app(self, capsys, tmp_path):
        output = tmp_path / "bv.json"
        code = main(["run", "--app", "BV", "--qubits", "12",
                     "--topology", "L3", "--capacity", "8",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Application fidelity" in out
        assert output.exists()
        payload = json.loads(output.read_text())
        assert 0.0 <= payload["fidelity"] <= 1.0

    def test_run_with_am2_is(self, capsys):
        code = main(["run", "--app", "Adder", "--qubits", "12",
                     "--topology", "L3", "--capacity", "8",
                     "--gate", "AM2", "--reorder", "IS"])
        assert code == 0
        assert "Shuttles" in capsys.readouterr().out

    def test_sweep_figure6_small(self, capsys, tmp_path):
        output = tmp_path / "fig6.json"
        code = main(["sweep", "--figure", "6", "--small", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6 series" in out
        # Every point is a one-gate fan-out, counted like Figure 8's.
        assert "Cache: 0 hits / 18 misses | batch: 18 variants over 18 " \
            "plans (+0 reuses), 18 timelines walked, 0 dedup hits\n" in out
        payload = json.loads(output.read_text())
        assert payload["capacities"] == [6, 8, 10]

    def test_sweep_store_resumes_with_identical_series(self, capsys, tmp_path):
        store = tmp_path / "store"
        args = ["sweep", "--figure", "6", "--small", "--store", str(store)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        # The replayed run prints the same series bit-for-bit.
        assert [line for line in first.splitlines() if line.startswith("  ")] == \
            [line for line in second.splitlines() if line.startswith("  ")]
        assert store.exists()


class TestOutputFailures:
    """--output must create parents and exit non-zero on write failure."""

    def test_output_creates_missing_parents(self, capsys, tmp_path):
        output = tmp_path / "deeply" / "nested" / "dirs" / "bv.json"
        code = main(["run", "--app", "BV", "--qubits", "12",
                     "--topology", "L3", "--capacity", "8",
                     "--output", str(output)])
        assert code == 0
        assert output.exists()
        capsys.readouterr()

    @pytest.fixture
    def blocked_path(self, tmp_path):
        """A path whose parent is a regular file, so writes must fail."""

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return blocker / "out.json"

    def test_run_output_failure_is_nonzero(self, capsys, blocked_path):
        code = main(["run", "--app", "BV", "--qubits", "12",
                     "--topology", "L3", "--capacity", "8",
                     "--output", str(blocked_path)])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_sweep_output_failure_is_nonzero(self, capsys, blocked_path):
        code = main(["sweep", "--figure", "6", "--small",
                     "--output", str(blocked_path)])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_dse_export_output_failure_is_nonzero(self, capsys, tmp_path,
                                                  blocked_path):
        store = tmp_path / "store"
        assert main(["dse", "run", "--apps", "BV", "--qubits", "10",
                     "--topologies", "L3", "--capacities", "6",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        code = main(["dse", "export", "--store", str(store),
                     "--output", str(blocked_path)])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err


class TestDseCommands:
    def _run_args(self, store):
        return ["dse", "run", "--apps", "QFT,BV", "--qubits", "10",
                "--topologies", "L3", "--capacities", "6,8",
                "--gates", "AM1,FM", "--reorders", "GS",
                "--store", str(store)]

    def test_dse_run_and_resume(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(self._run_args(store)) == 0
        first = capsys.readouterr().out
        assert "Evaluated 8 points, replayed 0" in first
        assert "Best point" in first
        assert main(self._run_args(store)) == 0
        second = capsys.readouterr().out
        assert "Evaluated 0 points, replayed 8" in second

    def test_dse_run_sharded_then_status(self, capsys, tmp_path):
        store = tmp_path / "store"
        for shard in ("1/2", "2/2"):
            assert main(self._run_args(store) + ["--shard", shard]) == 0
        capsys.readouterr()
        assert main(["dse", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "8 evaluated points" in out
        assert "shard-1of2.jsonl" in out and "shard-2of2.jsonl" in out

    def test_dse_run_random_strategy_with_output(self, capsys, tmp_path):
        output = tmp_path / "result.json"
        assert main(["dse", "run", "--apps", "BV", "--qubits", "10",
                     "--topologies", "L3", "--capacities", "6,8",
                     "--strategy", "random", "--samples", "1", "--seed", "3",
                     "--output", str(output)]) == 0
        capsys.readouterr()
        payload = json.loads(output.read_text())
        assert payload["strategy"]["name"] == "random"
        assert len(payload["records"]) == 1
        assert payload["space"]["apps"] == ["BV"]

    def test_dse_pareto_and_export(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(self._run_args(store)) == 0
        capsys.readouterr()
        assert main(["dse", "pareto", "--store", str(store),
                     "--app", "bv10"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier for bv10" in out
        export = tmp_path / "export.json"
        assert main(["dse", "export", "--store", str(store),
                     "--output", str(export)]) == 0
        capsys.readouterr()
        payload = json.loads(export.read_text())
        assert payload["num_points"] == 8
        assert len(payload["rows"]) == 8

    def test_dse_pareto_unknown_app_fails(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["dse", "run", "--apps", "BV", "--qubits", "10",
                     "--topologies", "L3", "--capacities", "6",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["dse", "pareto", "--store", str(store),
                     "--app", "nope"]) == 1
        assert "no points" in capsys.readouterr().err

    def test_dse_status_with_space_reports_pending(self, capsys, tmp_path):
        store = tmp_path / "store"
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps({
            "apps": ["BV"], "qubits": [10], "topologies": ["L3"],
            "capacities": [6, 8]}))
        assert main(["dse", "run", "--space", str(spec), "--store", str(store),
                     "--strategy", "random", "--samples", "1"]) == 0
        capsys.readouterr()
        assert main(["dse", "status", "--store", str(store),
                     "--space", str(spec)]) == 0
        assert "1/2 points completed, 1 pending" in capsys.readouterr().out

    def test_bare_dse_is_usage_error(self, capsys):
        assert main(["dse"]) == 1
        assert "usage: repro dse" in capsys.readouterr().err

    def test_dse_run_requires_space_or_apps(self, capsys):
        with pytest.raises(SystemExit):
            main(["dse", "run"])
        capsys.readouterr()

    def test_dse_adaptive_shard_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["dse", "run", "--apps", "BV", "--qubits", "10",
                  "--topologies", "L3", "--capacities", "6,8",
                  "--strategy", "greedy", "--shard", "1/2"])
        capsys.readouterr()

    def test_replayed_output_is_byte_identical(self, capsys, tmp_path):
        # The second run replays every point from the store: its records
        # list their metrics in the order a computed run does.
        outputs = []
        for name in ("fresh.json", "replayed.json"):
            output = tmp_path / name
            assert main(self._run_args(tmp_path / "store")
                        + ["--output", str(output)]) == 0
            outputs.append(output.read_bytes())
        assert "Evaluated 0 points, replayed 8" in capsys.readouterr().out
        assert outputs[0] == outputs[1]

    def test_halving_ladder_stops_below_default_size(self, capsys, tmp_path):
        # No --qubits: the proxies stand in for the 64-qubit default
        # circuits, so the ladder ends below 64 (not at 96 qubits, which
        # no 22-ion L4 device holds) and the finals run at full size.
        output = tmp_path / "halving.json"
        assert main(["dse", "run", "--apps", "QFT,BV", "--topologies", "L4",
                     "--capacities", "22,24", "--gates", "AM1,FM",
                     "--reorders", "GS,IS", "--strategy", "halving",
                     "--output", str(output)]) == 0
        capsys.readouterr()
        payload = json.loads(output.read_text())
        assert [entry["proxy_qubits"] for entry in payload["trace"]] == \
            [12, 24, 48, None]
        assert payload["trace"][-1]["proposed"] == 2


class TestJobs:
    """``--jobs N`` runs N local ledger workers; what they cannot run is
    refused by name (equality with serial runs: ``test_dse``,
    ``test_adaptive`` and ``test_moo``)."""

    SPACE = ["--apps", "QFT,BV", "--qubits", "8", "--topologies", "L3",
             "--capacities", "6,8", "--gates", "AM1,FM"]

    def test_refusals_name_their_reason(self, capsys):
        cases = [
            (["sweep", "--figure", "8", "--small"], "--small"),
            (["dse", "run", *self.SPACE, "--shard", "1/2"], "--shard"),
        ]
        for argv, reason in cases:
            with pytest.raises(SystemExit) as stopped:
                main(argv + ["--jobs", "2"])
            assert stopped.value.code != 0 and reason in str(stopped.value)
        capsys.readouterr()


class TestRefusedInput:
    """Input a validator refuses exits with one ``error:`` line, not a
    traceback; nothing is compiled or simulated."""

    SPACE = ["--topologies", "L3", "--capacities", "6"]

    @pytest.mark.parametrize("argv, message", [
        (["run", "--app", "QFT", "--topology", "Z9"],
         "unknown topology name 'Z9'"),
        (["run", "--app", "QFT", "--capacity", "1"],
         "trap_capacity must be at least 2"),
        (["run", "--app", "QFT", "--qubits", "200", "--capacity", "20"],
         "200 qubits do not fit a L6 device"),
        (["run", "--app", "QFT", "--qubits", "1"], "QFT needs at least 2"),
        (["device", "--topology", "Z9"], "unknown topology name 'Z9'"),
        (["device", "--capacity", "1"], "trap_capacity must be at least 2"),
        (["check", "--app", "QFT", "--topology", "Z9"],
         "unknown topology name 'Z9'"),
        (["dse", "run", "--apps", "QFT", "--qubits", "0", *SPACE],
         "qubit counts must be at least 2"),
        (["dse", "run", "--apps", "QFT", "--qubits", "8", "--topologies",
          "L3", "--capacities", "1"], "trap capacities must be at least 2"),
        (["dse", "dispatch", "--apps", "QFT", "--qubits", "0", *SPACE,
          "--print-only", "--store", "{store}"],
         "qubit counts must be at least 2"),
        (["dse", "run", "--apps", "QFT", "--qubits", "8", *SPACE,
          "--strategy", "greedy", "--shard", "1/2", "--store", "{store}"],
         "strategy 'greedy' cannot be sharded"),
        (["dse", "run", "--apps", "QTF", "--qubits", "8", *SPACE,
          "--store", "{store}"], "unknown application 'QTF'"),
        (["dse", "dispatch", "--apps", "QTF", "--qubits", "8", *SPACE,
          "--workers", "1", "--store", "{store}"],
         "unknown application 'QTF'"),
    ], ids=["run-topology", "run-capacity", "run-too-many-qubits",
            "run-one-qubit", "device-topology", "device-capacity",
            "check-topology", "dse-run-qubits", "dse-run-capacity",
            "dse-dispatch-qubits", "dse-run-shard-greedy", "dse-run-app",
            "dse-dispatch-app"])
    def test_validator_refusal_is_one_error_line(self, argv, message,
                                                 capsys, tmp_path):
        argv = [arg.format(store=tmp_path / "store") for arg in argv]
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        text = str(stopped.value)
        assert text.startswith("error: ") and message in text
        assert "\n" not in text
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "store").exists()

    def test_status_space_refusal_is_one_error_line(self, capsys, tmp_path):
        from repro.dse import DesignSpace

        payload = DesignSpace(apps=("QFT",), qubits=(8,), topologies=("L3",),
                              capacities=(6,)).to_dict()
        payload["capacities"] = [1]
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps(payload))
        (tmp_path / "store").mkdir()
        with pytest.raises(SystemExit) as stopped:
            main(["dse", "status", "--store", str(tmp_path / "store"),
                  "--space", str(spec)])
        assert str(stopped.value) == \
            "error: trap capacities must be at least 2"
        capsys.readouterr()

    @pytest.mark.parametrize("argv, content, message", [
        (["dse", "run", "--space", "{file}"], None, "cannot read"),
        (["dse", "run", "--space", "{file}"], "[1, 2]",
         "design-space spec: expected a JSON object, got list"),
        (["dse", "run", "--space", "{file}"],
         '{"apps": ["QFT"], "capacities": "x"}',
         "design-space spec: 'capacities' holds 'x'"),
        (["dse", "status", "--store", "{store}", "--space", "{file}"], None,
         "cannot read"),
        (["check", "--program", "{file}"], None, "cannot read"),
        (["check", "--program", "{file}"], "not json", "cannot read"),
        (["check", "--program", "{file}"], "[]",
         "program payload: expected a JSON object, got list"),
        (["check", "--program", "{file}"], "{}",
         "program payload: missing key 'placement'"),
    ], ids=["space-missing", "space-list", "space-capacities",
            "status-space-missing", "program-missing", "program-not-json",
            "program-list", "program-no-placement"])
    def test_bad_input_file_is_one_error_line(self, argv, content, message,
                                              capsys, tmp_path):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        (tmp_path / "store").mkdir()
        argv = [arg.format(file=path, store=tmp_path / "store")
                for arg in argv]
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        text = str(stopped.value)
        assert text.startswith("error: ") and message in text
        assert "\n" not in text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["status"], ["pareto"], ["top", "--once"],
        ["export", "--output", "{tmp}/export.json"]])
    def test_read_commands_refuse_a_missing_store(self, command, capsys,
                                                  tmp_path):
        """They once created the directory and exited 0 (``export`` with
        an empty export)."""

        store = tmp_path / "store"
        with pytest.raises(SystemExit) as stopped:
            main(["dse", command[0], "--store", str(store),
                  *(arg.format(tmp=tmp_path) for arg in command[1:])])
        assert str(stopped.value) == \
            f"error: cannot read experiment store {store}: no such directory"
        assert capsys.readouterr().out == ""
        assert not store.exists() and not (tmp_path / "export.json").exists()

    @pytest.mark.parametrize("command", [["run", "--app", "QFT"], ["device"],
                                         ["check", "--app", "QFT"]])
    def test_qubits_must_be_positive(self, command, capsys):
        """``run --qubits 0`` once ran the 64-qubit default circuit."""

        with pytest.raises(SystemExit) as stopped:
            main(command + ["--qubits", "0"])
        assert stopped.value.code == 2
        assert "--qubits: must be a positive integer" in \
            capsys.readouterr().err

    def test_check_help_names_jobs_only_where_taken(self):
        def check_help(*command):
            parser = build_parser()
            for name in command:
                parser = next(
                    action.choices[name] for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
            return next(action.help for action in parser._actions
                        if "--check" in action.option_strings)

        assert "--jobs" not in check_help("run")
        assert "--jobs" in check_help("sweep")
        assert "--jobs" in check_help("dse", "run")
