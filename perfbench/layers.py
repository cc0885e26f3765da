"""Per-layer metrics of one traced iteration, from the files the run left.

Sources, all read after the processes have exited:

* ``<iteration>/layers/<pid>.json`` -- one per process, written by the
  start-up hook (``hook/layer_hook.py``): layer timers around public
  functions, work counts, the package's own span totals, golden checks;
* ``<store>/telemetry/*.jsonl`` -- the dispatch workers' lease events
  (``dispatch-2`` only), as the program writes them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: name -> unit; the order is the report order.
METRICS = {
    "import.repro_s": "s",
    "apps.build_s": "s",
    "hardware.build_device_s": "s",
    "hardware.build_device.calls": "count",
    "compiler.compile_s": "s",
    "compiler.calls": "count",
    "compiler.ops_emitted": "count",
    "compiler.shuttles": "count",
    "compiler.us_per_op": "us",
    "compiler.lower_s": "s",
    "compiler.map_s": "s",
    "compiler.route_s": "s",
    "compiler.validate_s": "s",
    "compiler.self_s": "s",
    "sim.simulate_s": "s",
    "sim.simulate.calls": "count",
    "sim.simulate.us_per_op": "us",
    "sim.batch_s": "s",
    "sim.batch.calls": "count",
    "sim.batch.variants": "count",
    "sim.batch.timelines": "count",
    "sim.batch.timeline_hit_rate": "frac",
    "sim.batch.plan_s": "s",
    "sim.batch.variants_s": "s",
    "sim.batch.us_per_variant": "us",
    "toolflow.cache.hits": "count",
    "toolflow.cache.misses": "count",
    "toolflow.self_s": "s",
    "dse.fingerprint_s": "s",
    "dse.store.load_s": "s",
    "dse.store.add_s": "s",
    "dse.store.rows": "count",
    "dse.store.reload_s": "s",
    "dse.store.reload.calls": "count",
    "dse.store.export_s": "s",
    "dse.dispatch.worker_start_s": "s",
    "dse.dispatch.claims": "count",
    "dse.dispatch.renewals": "count",
    "dse.dispatch.leases_lost": "count",
    "dse.dispatch.worker_busy_frac": "frac",
    "dse.dispatch.tail_s": "s",
    "io.output_write_s": "s",
    "obs.trace_overhead_frac": "frac",
    "obs.unattributed_frac": "frac",
}

#: Counts that must repeat exactly from one traced iteration to the next.
EXACT_COUNTS = (
    "compiler.calls", "compiler.ops_emitted", "compiler.shuttles",
    "sim.simulate.calls", "sim.batch.calls", "sim.batch.variants",
    "sim.batch.timelines", "toolflow.cache.hits", "toolflow.cache.misses",
    "dse.store.rows",
)

#: On ``dispatch-2`` these depend on which worker wins which lease.  Shards
#: split a compilation's gate variants, and each worker has its own program
#: cache, so a program whose variants land in shards of both workers is
#: compiled (and its plan's timelines walked) in each of them.  The shard
#: partition itself is fixed by the space, so the other counts repeat.
LEASE_DEPENDENT = (
    "compiler.calls", "compiler.ops_emitted", "compiler.shuttles",
    "sim.batch.timelines", "toolflow.cache.hits", "toolflow.cache.misses",
)


def exact_counts(workload: str) -> Tuple[str, ...]:
    if workload == "dispatch-2":
        return tuple(name for name in EXACT_COUNTS if name not in LEASE_DEPENDENT)
    return EXACT_COUNTS


def _read_dumps(layer_dir: Path) -> List[dict]:
    return [json.loads(path.read_text())
            for path in sorted(layer_dir.glob("*.json"))]


def _telemetry(store_dir: Path) -> List[dict]:
    events = []
    for path in sorted((store_dir / "telemetry").glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                events.append(json.loads(line))
    return events


def collect(iteration_dir: Path, process_walls: Sequence[Tuple[int, float]]
            ) -> Tuple[Dict[str, float], int, List[str]]:
    """``(metrics, golden_checked, golden_mismatches)`` of one traced iteration.

    ``process_walls`` lists ``(pid, wall_s)`` of each process the benchmark
    started, measured by the benchmark from spawn to exit.  Every metric of
    :data:`METRICS` is present except ``obs.trace_overhead_frac``, which
    needs the untraced iterations too.
    """

    dumps = _read_dumps(iteration_dir / "layers")
    layers: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    spans: Dict[str, Dict[str, float]] = {}
    spawns: Dict[str, float] = {}
    checked, mismatches = 0, []
    for dump in dumps:
        for name, entry in dump["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, entry in dump["spans"].items():
            into = spans.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
        spawns.update(dump["spawns"])
        checked += dump["golden"]["checked"]
        mismatches.extend(dump["golden"]["mismatches"])

    def layer(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    def span_total(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0)

    def per(total: float, amount: float, scale: float = 1e6) -> float:
        return total / amount * scale if amount else 0.0

    compile_s = layer("compiler")
    stages = {stage: span_total(f"compile.{stage}")
              for stage in ("lower", "map", "route", "validate")}
    batch_s = layer("sim.batch")
    variants = counts.get("batch.variants", 0)
    metrics = {
        "import.repro_s": sum(dump["import_s"] for dump in dumps),
        "apps.build_s": layer("apps"),
        "hardware.build_device_s": layer("hardware"),
        "hardware.build_device.calls": layer("hardware", "calls"),
        "compiler.compile_s": compile_s,
        "compiler.calls": layer("compiler", "calls"),
        "compiler.ops_emitted": counts.get("compile.ops", 0),
        "compiler.shuttles": counts.get("compile.shuttles", 0),
        "compiler.us_per_op": per(compile_s, counts.get("compile.ops", 0)),
        **{f"compiler.{stage}_s": value for stage, value in stages.items()},
        "compiler.self_s": compile_s - sum(stages.values()) if compile_s else 0.0,
        "sim.simulate_s": layer("sim.simulate"),
        "sim.simulate.calls": layer("sim.simulate", "calls"),
        "sim.simulate.us_per_op": per(layer("sim.simulate"),
                                      counts.get("simulate.ops", 0)),
        "sim.batch_s": batch_s,
        "sim.batch.calls": layer("sim.batch", "calls"),
        "sim.batch.variants": variants,
        "sim.batch.timelines": span_total("sim.batch.variants", "timelines"),
        "sim.batch.timeline_hit_rate": (
            span_total("sim.batch.variants", "timeline_hits") / variants
            if variants else 0.0),
        "sim.batch.plan_s": span_total("sim.batch.plan"),
        "sim.batch.variants_s": span_total("sim.batch.variants"),
        "sim.batch.us_per_variant": per(batch_s, variants),
        "toolflow.cache.hits": counts.get("cache.hits", 0),
        "toolflow.cache.misses": counts.get("cache.misses", 0),
        "toolflow.self_s": layer("toolflow", "self_s"),
        "dse.fingerprint_s": layer("dse.fingerprint"),
        "dse.store.load_s": layer("dse.store.load"),
        "dse.store.add_s": layer("dse.store.add"),
        "dse.store.rows": counts.get("store.rows", 0),
        "dse.store.reload_s": layer("dse.store.reload"),
        "dse.store.reload.calls": layer("dse.store.reload", "calls"),
        "dse.store.export_s": layer("dse.store.export"),
        "io.output_write_s": layer("io"),
    }
    metrics.update(_dispatch_metrics(iteration_dir / "store", dumps, spawns))
    metrics["obs.unattributed_frac"] = _unattributed_frac(dumps, spawns,
                                                          process_walls)
    return metrics, checked, mismatches


def _dispatch_metrics(store_dir: Path, dumps, spawns) -> Dict[str, float]:
    events = _telemetry(store_dir) if store_dir.is_dir() else []
    kinds = [event.get("event") for event in events]
    starts = [event for event in events if event.get("event") == "worker_start"]
    exits = {event["owner"]: event["t"] for event in events
             if event.get("event") == "worker_exit"}
    done = [event for event in events if event.get("event") == "done"]
    start_delays = [event["t"] - spawns[str(event["pid"])] for event in starts
                    if str(event.get("pid")) in spawns]
    alive = sum(exits[event["owner"]] - event["t"] for event in starts
                if event["owner"] in exits)
    dispatcher_exit = max((dump["end_wall"] for dump in dumps if dump["spawns"]),
                          default=None)
    return {
        "dse.dispatch.worker_start_s": (sum(start_delays) / len(start_delays)
                                        if start_delays else 0.0),
        "dse.dispatch.claims": kinds.count("claim"),
        "dse.dispatch.renewals": kinds.count("renew"),
        "dse.dispatch.leases_lost": kinds.count("lease_lost"),
        "dse.dispatch.worker_busy_frac": (
            sum(event["wall_s"] for event in done) / alive if alive else 0.0),
        "dse.dispatch.tail_s": (dispatcher_exit - max(event["t"] for event in done)
                                if done and dispatcher_exit else 0.0),
    }


def _unattributed_frac(dumps, spawns, process_walls) -> float:
    """Share of process time not inside the import or any timed layer call.

    A process's time runs from its spawn to its exit: the benchmark's own
    measurement for the processes it starts, the dispatcher's spawn stamp to
    the hook's exit stamp for dispatched workers.  Hook bookkeeping counts
    as attributed (it is tracing overhead, reported separately).
    """

    by_pid = {dump["pid"]: dump for dump in dumps}
    total = unattributed = 0.0
    for pid, wall in process_walls:
        dump = by_pid.pop(pid, None)
        total += wall
        unattributed += wall if dump is None else (
            wall - dump["import_s"] - dump["attributed_s"] - dump["harness_s"])
    for pid, dump in by_pid.items():
        spawned = spawns.get(str(pid), dump["start_wall"])
        wall = dump["end_wall"] - spawned
        total += wall
        unattributed += wall - dump["import_s"] - dump["attributed_s"] - dump["harness_s"]
    return unattributed / total if total else 0.0
