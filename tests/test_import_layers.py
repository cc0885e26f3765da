"""Which modules each kind of toolflow process loads.

The toolflow runs as many short processes -- a dispatched study starts a
dispatcher, its workers and an exporter -- so each one should import only
the layers it runs.  Every probe here starts a fresh interpreter, does one
thing and reports ``sys.modules``; the assertions are on module sets, never
on timings.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import COMMANDS, main

SRC = Path(repro.__file__).resolve().parents[1]

#: What a bare ``import repro`` or the CLI shell must not load: every layer
#: package, the circuit IR, and networkx (a test-only dependency).
LAYERS = ("repro.ir", "repro.hardware", "repro.compiler", "repro.sim",
          "repro.toolflow", "repro.dse", "repro.analyze", "repro.obs",
          "networkx")
#: What a process that never compiles must not load.
COMPILE_SIDE = ("repro.compiler", "repro.sim.batch", "repro.analyze")
#: What a grid dispatch must not load either: the search strategies and
#: every proposer.
SEARCH_SIDE = ("repro.dse.strategies", "repro.dse.adaptive", "repro.dse.moo")
#: The op classes, which only a caller asking for op objects loads: every
#: toolflow path reads the op records.
OP_CLASSES = ("repro.isa.operations",)
#: The data-model layers below the toolflow: the circuit IR, the hardware,
#: the program ISA and the simulator.
DATA_MODEL = ("repro.ir", "repro.hardware", "repro.isa", "repro.sim")
#: The physical models; a design space needs only their parameters
#: (``repro.models.params``).
MODELS = ("repro.models.gate_times", "repro.models.heating",
          "repro.models.fidelity")
#: The CLI's command-group modules.
CLI_GROUPS = sorted({f"repro.cli.{group}" for group, _ in COMMANDS.values()})


def _cli(*argv):
    """Probe code running ``python -m repro <argv>`` in the probe process."""

    return (f"import runpy\nsys.argv = ['repro', *{list(argv)!r}]\n"
            f"try:\n    runpy.run_module('repro', run_name='__main__')\n"
            f"except SystemExit as exc:\n    assert exc.code in (0, None), exc.code")


def _loaded(code, tmp_path):
    """The module names a fresh interpreter holds after running ``code``
    (or when ``code`` writes them to ``OUT`` and exits early)."""

    out = tmp_path / "modules.json"
    probe = (f"import json, sys\nOUT = {str(out)!r}\n{code}\n"
             f"open(OUT, 'w').write(json.dumps(sorted(sys.modules)))\n")
    subprocess.run([sys.executable, "-c", probe], check=True, cwd=tmp_path,
                   env=dict(os.environ, PYTHONPATH=str(SRC)),
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def _offending(modules, prefixes):
    return [name for name in modules
            if any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)]


def _generators(modules):
    """The application generators: ``repro.apps``'s submodules (the package
    itself holds only the names)."""

    return [name for name in modules if name.startswith("repro.apps.")]


@pytest.mark.parametrize("code", [
    "import repro",
    "import repro.cli",
    _cli("info"),
], ids=["import repro", "import repro.cli", "repro info"])
def test_package_and_cli_shell_load_no_layer_and_no_networkx(code, tmp_path):
    """The parser and ``repro info`` read the application names from
    ``repro.apps``'s constant, not from a generator."""

    loaded = _loaded(code, tmp_path)
    assert _offending(loaded, LAYERS) + _generators(loaded) == []


def test_exporter_loads_no_data_model_layer(tmp_path):
    """``dse export`` copies JSON rows: no point, config or model is built."""

    store = tmp_path / "store"
    assert main(["dse", "run", "--apps", "BV", "--qubits", "8",
                 "--topologies", "L3", "--capacities", "6", "--gates",
                 "AM1,FM", "--store", str(store)]) == 0
    loaded = _loaded(_cli("dse", "export", "--store", str(store),
                          "--output", str(tmp_path / "export.json")),
                     tmp_path)
    assert json.loads((tmp_path / "export.json").read_text())["num_points"] == 2
    assert _generators(loaded) + _offending(
        loaded, DATA_MODEL + ("repro.models", "repro.toolflow",
                              "repro.dse.space")) == []


def test_dispatcher_spawns_its_first_worker_without_the_data_model(tmp_path):
    """A real ``dse dispatch``, probed at its first worker spawn: the
    manifest and the ledger need the space's description, never a circuit,
    a device, a program or a result."""

    spawn = ("import os, subprocess\n"
             "def spawn(*args, **kwargs):\n"
             "    open(OUT, 'w').write(json.dumps(sorted(sys.modules)))\n"
             "    os._exit(0)\n"
             "subprocess.Popen = spawn\n")
    loaded = _loaded(spawn + _cli(
        "dse", "dispatch", "--apps", "QFT,BV", "--qubits", "8",
        "--topologies", "L3", "--capacities", "6", "--workers", "2",
        "--store", str(tmp_path / "store")), tmp_path)
    assert "repro.dse.dispatch" in loaded
    assert (tmp_path / "store" / "dispatch.json").exists()
    assert _generators(loaded) + _offending(loaded, DATA_MODEL + MODELS) == []


def test_worker_loads_no_stream_reader(tmp_path):
    """A real ``dse worker`` writes its stream but reads none: it runs its
    shards without the timeline module the operator's views read."""

    store = tmp_path / "store"
    assert main(["dse", "dispatch", "--apps", "BV", "--qubits", "8",
                 "--topologies", "L3", "--capacities", "6", "--gates", "FM",
                 "--store", str(store), "--print-only"]) == 0
    loaded = _loaded(_cli("dse", "worker", "--store", str(store),
                          "--owner", "probe"), tmp_path)
    assert (store / "worker-probe.jsonl").read_text().count("\n") == 1
    assert _offending(loaded, ("repro.obs.timeline",)) == []


def test_worker_loads_no_other_command_group(tmp_path):
    """A dispatched worker compiles the CLI shell and the ``dse`` group
    only."""

    store = tmp_path / "store"
    assert main(["dse", "dispatch", "--apps", "BV", "--qubits", "8",
                 "--topologies", "L3", "--capacities", "6", "--gates", "FM",
                 "--store", str(store), "--print-only"]) == 0
    loaded = _loaded(_cli("dse", "worker", "--store", str(store),
                          "--owner", "probe"), tmp_path)
    assert [group for group in CLI_GROUPS if group in loaded] == \
        ["repro.cli.dse"]


def test_sweep_loads_no_dse_command_group(tmp_path):
    loaded = _loaded(_cli("sweep", "--figure", "6", "--small"), tmp_path)
    assert [group for group in CLI_GROUPS if group in loaded] == \
        ["repro.cli.paper"]


def test_store_dispatcher_and_exporter_load_no_compiler(tmp_path):
    store = tmp_path / "store"
    space = ("--apps", "BV", "--qubits", "8", "--topologies", "L3",
             "--capacities", "6", "--gates", "AM1,FM")
    for code in ("import repro.dse.dispatch",
                 "import repro.dse.store",
                 "import repro.io.serialization",
                 _cli("dse", "dispatch", *space, "--store", str(store),
                      "--print-only"),
                 _cli("dse", "export", "--store", str(store),
                      "--output", str(tmp_path / "export.json"))):
        assert _offending(_loaded(code, tmp_path),
                          COMPILE_SIDE + SEARCH_SIDE + OP_CLASSES) == [], code
    assert json.loads((tmp_path / "export.json").read_text())["num_points"] == 0
    # A proposer prepare builds the strategy spec and records its default
    # budget; the compile side loads only once the proposer runs.
    for strategy in ("random", "greedy", "halving", "bayes",
                     "adaptive-halving", "ehvi", "parego"):
        knobs = ("--samples", "3") if strategy == "random" else ()
        code = _cli("dse", "dispatch", *space, "--strategy", strategy, *knobs,
                    "--store", str(tmp_path / strategy), "--print-only")
        assert _offending(_loaded(code, tmp_path), COMPILE_SIDE) == [], code


@pytest.mark.parametrize("command", [("pareto",), ("status", "--by-strategy")],
                         ids=["pareto", "status"])
def test_record_readers_load_no_compiler(command, tmp_path):
    """``dse pareto`` and ``dse status`` build every record of a store
    through ``row_to_record``: the one record class loads no compiler or
    simulator."""

    store = tmp_path / "store"
    assert main(["dse", "run", "--apps", "BV", "--qubits", "8",
                 "--topologies", "L3", "--capacities", "6", "--gates",
                 "AM1,FM", "--store", str(store)]) == 0
    loaded = _loaded(_cli("dse", *command, "--store", str(store)), tmp_path)
    assert "repro.toolflow.runner" in loaded
    assert _offending(loaded, COMPILE_SIDE) == []


@pytest.mark.parametrize("module", ["repro.compiler.compile",
                                    "repro.toolflow.parallel"])
def test_compile_paths_load_no_analyzer(module, tmp_path):
    loaded = _loaded(f"import {module}", tmp_path)
    assert module in loaded
    assert _offending(loaded, ("repro.analyze",)) == []


def test_compile_loads_only_the_verifier(tmp_path):
    """``program.validate()`` runs the verifier's quick check; a compile
    and simulation load no linter, race detector or ``--check`` runtime
    hook, and no op class."""

    loaded = _loaded("from repro.apps import qft_circuit\n"
                     "from repro.compiler import compile_circuit\n"
                     "from repro.hardware import build_device\n"
                     "from repro.sim import simulate\n"
                     "device = build_device('L3', trap_capacity=6, "
                     "num_qubits=8)\n"
                     "simulate(compile_circuit(qft_circuit(8), device), "
                     "device)", tmp_path)
    assert "repro.analyze.verifier" in loaded
    assert "repro.sim.batch" in loaded
    assert _offending(loaded, ("repro.analyze.lint", "repro.analyze.races",
                               "repro.analyze.runtime") + OP_CLASSES) == []


def test_checked_run_loads_no_op_class(tmp_path):
    """``--check`` verifies and race-checks the op records."""

    loaded = _loaded(_cli("run", "--app", "QFT", "--qubits", "8", "--topology",
                          "G2x2", "--capacity", "6", "--check"), tmp_path)
    assert "repro.analyze.runtime" in loaded
    assert _offending(loaded, OP_CLASSES) == []


@pytest.mark.parametrize("package", [
    "repro", "repro.analyze", "repro.apps", "repro.dse", "repro.dse.adaptive",
    "repro.io", "repro.isa", "repro.models", "repro.obs", "repro.sim",
    "repro.toolflow"])
def test_lazy_exports_resolve(package):
    """Every name a ``lazy_exports`` package lists resolves: an entry left
    behind by a deleted name fails here, not on first use."""

    module = importlib.import_module(package)
    assert [name for name in module.__all__
            if getattr(module, name, None) is None] == []


def test_isa_resolves_the_op_classes_on_demand(tmp_path):
    loaded = _loaded("from repro.isa import OpKind, QCCDProgram", tmp_path)
    assert _offending(loaded, OP_CLASSES) == []
    import repro.isa as isa

    assert [name for name in isa.__all__
            if getattr(isa, name, None) is None] == []
