"""Per-layer timers wrapped around the package's public functions.

:func:`install` imports ``repro.cli`` (timed: the ``import`` layer), replaces
each listed public function or method with a timing wrapper -- in its own
module and wherever another module bound it by name -- and turns on the
package's span tracer through the public ``enable_tracing``.  At exit the
process writes ``<pid>.json`` into the layer directory: per-layer call
counts, total and self time, work counts, span totals and the golden checks
made on the way.

Nothing in ``src/`` changes.  Time the hook spends on its own bookkeeping is
counted separately (``harness_s``) and subtracted from the layer it
happened inside.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
from pathlib import Path

_clock = time.perf_counter


class Recorder:
    """Layer totals of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.start_wall = time.time()
        self.import_s = 0.0
        self.harness_s = 0.0
        self.attributed_s = 0.0
        self.layers = {}
        self.counts = {}
        self.stack = []
        self.golden = {"checked": 0, "mismatches": []}
        self.spawns = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, function, post=None):
        """``function`` timed under ``layer``; ``post(args, kwargs, result)``
        runs after the timed call as harness time."""

        recorder = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            nested_in_layer = any(frame[0] == layer for frame in recorder.stack)
            frame = [layer, 0.0]
            recorder.stack.append(frame)
            harness_before = recorder.harness_s
            start = _clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = _clock() - start - (recorder.harness_s - harness_before)
                recorder.stack.pop()
                entry = recorder.layers.setdefault(
                    layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                if not nested_in_layer:
                    entry["total_s"] += elapsed
                entry["self_s"] += elapsed - frame[1]
                if recorder.stack:
                    recorder.stack[-1][1] += elapsed
                else:
                    recorder.attributed_s += elapsed
            if post is not None:
                started = _clock()
                post(args, kwargs, result)
                recorder.harness_s += _clock() - started
            return result

        return timed


RECORDER = None


def _replace(owner, name: str, layer: str, post=None) -> None:
    """Wrap ``owner.name`` and rebind every module-level alias of it."""

    original = getattr(owner, name)
    wrapped = RECORDER.wrap(layer, original, post)
    setattr(owner, name, wrapped)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, name, None) is original:
            setattr(module, name, wrapped)


# --------------------------------------------------------------------------- #
# Golden checks (paper scale, L6, capacity 22, FM, default physical model)
# --------------------------------------------------------------------------- #
_GOLDEN = {}


def _load_golden() -> None:
    path = Path(__file__).resolve().parent.parent / "golden_cap22.json"
    with open(path) as handle:
        entries = json.load(handle)["entries"]
    for key, per_app in entries.items():
        reorder = key.split("-")[-1]
        for app, entry in per_app.items():
            _GOLDEN[(entry["circuit"], f"L6-cap22-FM-{reorder}")] = (app, entry)


def _device_key(device, gate: str) -> str:
    """The golden key form of a device, ``"L6-cap22-FM-GS"``."""

    capacity = max(trap.capacity for trap in device.topology.traps)
    return f"{device.topology.name}-cap{capacity}-{gate}-{device.reorder.value}"


_PROGRAM_CIRCUIT = {}


def _after_compile(args, kwargs, program) -> None:
    from repro.io.fingerprint import circuit_fingerprint, program_fingerprint

    circuit, device = args[0], args[1]
    RECORDER.count("compile.ops", len(program))
    RECORDER.count("compile.shuttles", program.num_shuttles)
    circuit_fp = circuit_fingerprint(circuit)
    _PROGRAM_CIRCUIT[id(program)] = circuit_fp
    key = _device_key(device, device.gate.value)
    golden = _GOLDEN.get((circuit_fp, key))
    if golden is not None:
        app, entry = golden
        RECORDER.golden["checked"] += 1
        if program_fingerprint(program) != entry["program"] or \
                len(program) != entry["num_ops"]:
            RECORDER.golden["mismatches"].append(f"program {app} {key}")


def _check_result(program, device, gate: str, model, result) -> None:
    from repro.io.fingerprint import result_metrics_hex
    from repro.models.params import PhysicalModel

    key = _device_key(device, gate)
    golden = _GOLDEN.get((_PROGRAM_CIRCUIT.get(id(program)), key))
    if golden is None or model != PhysicalModel():
        return
    app, entry = golden
    RECORDER.golden["checked"] += 1
    if result_metrics_hex(result) != entry["metrics"]:
        RECORDER.golden["mismatches"].append(f"metrics {app} {key}")


def _after_simulate(args, kwargs, result) -> None:
    program, device = args[0], args[1]
    RECORDER.count("simulate.ops", len(program))
    _check_result(program, device, device.gate.value, device.model, result)


def _after_gate_variants(args, kwargs, results) -> None:
    program, device, gates = args[0], args[1], args[2]
    RECORDER.count("batch.variants", len(results))
    for gate, result in zip(gates, results):
        _check_result(program, device, gate, device.model, result)


def _after_model_variants(args, kwargs, results) -> None:
    program, device, models = args[0], args[1], args[2]
    RECORDER.count("batch.variants", len(results))
    for model, result in zip(models, results):
        _check_result(program, device, device.gate.value, model, result)


def _after_batch(args, kwargs, results) -> None:
    RECORDER.count("batch.variants", len(results))


def _around_cache(function):
    """ProgramCache.get_or_compile, counting hits and misses."""

    def counted(cache, *args, **kwargs):
        hits = cache.hits
        result = function(cache, *args, **kwargs)
        RECORDER.count("cache.hits" if cache.hits > hits else "cache.misses")
        return result

    return functools.wraps(function)(counted)


def _after_add(args, kwargs, added) -> None:
    if added:
        RECORDER.count("store.rows")


def _after_spawn(args, kwargs, proc) -> None:
    RECORDER.spawns[str(proc.pid)] = time.time()


# --------------------------------------------------------------------------- #
def install(layer_dir: str) -> None:
    """Time the import, wrap the layers, enable tracing, dump at exit."""

    global RECORDER
    RECORDER = Recorder()
    started = _clock()
    import repro.cli  # noqa: F401  (the measured import)

    RECORDER.import_s = _clock() - started

    started = _clock()
    import repro.apps.suite as suite
    import repro.compiler.compile as compile_module
    import repro.dse.dispatch as dispatch
    import repro.dse.runner as dse_runner
    import repro.dse.store as store
    import repro.io.fingerprint as fingerprint
    import repro.io.serialization as serialization
    import repro.sim.batch as batch
    import repro.sim.engine as engine
    import repro.toolflow.config as config
    import repro.toolflow.figures as figures
    import repro.toolflow.parallel as parallel
    from repro.obs import enable_tracing

    _load_golden()
    for name in ("table2_suite", "scaled_suite", "build_application"):
        _replace(suite, name, "apps")
    _replace(config.ArchitectureConfig, "build_device", "hardware")
    _replace(compile_module, "compile_circuit", "compiler", _after_compile)
    _replace(engine, "simulate", "sim.simulate", _after_simulate)
    _replace(batch, "simulate_gate_variants", "sim.batch", _after_gate_variants)
    _replace(batch, "simulate_model_variants", "sim.batch", _after_model_variants)
    _replace(batch, "simulate_batch", "sim.batch", _after_batch)
    parallel.ProgramCache.get_or_compile = _around_cache(
        parallel.ProgramCache.get_or_compile)
    _replace(parallel.ProgramCache, "get_or_compile", "toolflow")
    _replace(parallel, "execute_task", "toolflow")
    _replace(dse_runner.DSERunner, "evaluate", "toolflow")
    for name in ("figure6", "figure7", "figure8"):
        _replace(figures, name, "toolflow")
    _replace(fingerprint, "design_point_fingerprint", "dse.fingerprint")
    _replace(store.ExperimentStore, "__init__", "dse.store.load")
    _replace(store.ExperimentStore, "add", "dse.store.add", _after_add)
    _replace(store.ExperimentStore, "reload", "dse.store.reload")
    _replace(store.ExperimentStore, "export_rows", "dse.store.export")
    _replace(dispatch.Dispatcher, "run", "dse.dispatch")
    _replace(dispatch, "run_worker", "dse.dispatch")
    _replace(dispatch, "spawn_worker_process", "dse.dispatch", _after_spawn)
    _replace(serialization, "save_json", "io")
    enable_tracing()
    RECORDER.harness_s += _clock() - started
    atexit.register(_dump, Path(layer_dir))


def _span_totals():
    from repro.obs import current_tracer

    tracer = current_tracer()
    totals = {}
    if tracer is None:
        return totals
    for item in tracer.spans:  # this process's own spans only
        entry = totals.setdefault(item.name, {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += item.end_s - item.start_s
        for key in ("timelines", "timeline_hits", "variants"):
            value = item.attrs.get(key)
            if isinstance(value, int) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
    return totals


def _dump(layer_dir: Path) -> None:
    started = _clock()
    payload = {
        "pid": os.getpid(),
        "argv": sys.argv,
        "start_wall": RECORDER.start_wall,
        "import_s": RECORDER.import_s,
        "attributed_s": RECORDER.attributed_s,
        "layers": RECORDER.layers,
        "counts": RECORDER.counts,
        "spans": _span_totals(),
        "golden": RECORDER.golden,
        "spawns": RECORDER.spawns,
    }
    layer_dir.mkdir(parents=True, exist_ok=True)
    RECORDER.harness_s += _clock() - started
    payload["harness_s"] = RECORDER.harness_s
    payload["end_wall"] = time.time()
    temp = layer_dir / f".{os.getpid()}.tmp"
    temp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(temp, layer_dir / f"{os.getpid()}.json")
