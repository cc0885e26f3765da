"""The four benchmark workloads: their specs, command lines and output checks.

Every workload is a paper-scale toolflow invocation that runs in fresh
processes from start to written artefact.  A spec is plain data; its
fingerprint covers only that data (name, apps, axes, model grid, seed) and
never a measured number, so two recorded results with the same fingerprint
ran the same workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

APPS = ("Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV")
CAPACITIES = (14, 18, 22, 26, 30, 34)
GATES = ("AM1", "AM2", "PM", "FM")
REORDERS = ("GS", "IS")

#: Levels of the ablation's model grid: multipliers of the paper's heating
#: constants (k1, k2, k_junction together), of the background heating rate
#: and of the laser-instability prefactor.  The grid is a seeded draw of
#: distinct level triples, always led by the default model (1, 1, 1).
HEATING_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0)
BACKGROUND_SCALES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0)
LASER_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
ABLATION_MODELS = 256

WORKLOADS = ("fig8-paper", "fig7-paper", "ablation-paper", "dispatch-2")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cap22.json"
ABLATION_SCRIPT = Path(__file__).resolve().parent / "ablation.py"


def model_grid(seed: int) -> List[List[float]]:
    """The ablation's ``ABLATION_MODELS`` factor triples for ``seed``."""

    default = [1.0, 1.0, 1.0]
    others = [[h, b, l] for h in HEATING_SCALES for b in BACKGROUND_SCALES
              for l in LASER_SCALES if [h, b, l] != default]
    return [default] + random.Random(seed).sample(others, ABLATION_MODELS - 1)


def spec(name: str, seed: int) -> Dict[str, object]:
    """The input description of one workload (what the fingerprint covers)."""

    if name == "fig8-paper":
        return {"name": name, "apps": list(APPS), "topologies": ["L6"],
                "capacities": list(CAPACITIES), "gates": list(GATES),
                "reorders": list(REORDERS), "model_grid": None, "seed": seed,
                "points": 288}
    if name == "fig7-paper":
        return {"name": name, "apps": list(APPS), "topologies": ["L6", "G2x3"],
                "capacities": list(CAPACITIES), "gates": ["FM"],
                "reorders": ["GS"], "model_grid": None, "seed": seed,
                "points": 72}
    if name == "ablation-paper":
        return {"name": name, "apps": list(APPS), "topologies": ["L6"],
                "capacities": [22], "gates": ["FM"],
                "reorders": list(REORDERS), "model_grid": model_grid(seed),
                "seed": seed, "points": len(APPS) * 2 * ABLATION_MODELS}
    if name == "dispatch-2":
        return {"name": name, "apps": list(APPS), "topologies": ["L6"],
                "capacities": list(CAPACITIES), "gates": list(GATES),
                "reorders": list(REORDERS), "model_grid": None, "seed": seed,
                "points": 288, "workers": 2}
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def fingerprint(workload_spec: Dict[str, object]) -> str:
    """sha256 of the canonical JSON of a spec."""

    text = json.dumps(workload_spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _space_flags(workload_spec) -> List[str]:
    return ["--apps", ",".join(workload_spec["apps"]),
            "--topologies", ",".join(workload_spec["topologies"]),
            "--capacities", ",".join(map(str, workload_spec["capacities"])),
            "--gates", ",".join(workload_spec["gates"]),
            "--reorders", ",".join(workload_spec["reorders"])]


def artefact_name(name: str) -> str:
    return "export.json" if name == "dispatch-2" else "out.json"


def prepare_inputs(workload_spec, inputs_dir: Path) -> None:
    """Write the generated inputs a workload's processes read."""

    if workload_spec["name"] == "ablation-paper":
        (inputs_dir / "grid.json").write_text(
            json.dumps({"factors": workload_spec["model_grid"]}))


def commands(workload_spec, inputs_dir: Path, run_dir: Path) -> List[List[str]]:
    """argv of each process one iteration runs, in order, from the checkout.

    ``inputs_dir`` holds what :func:`prepare_inputs` wrote; ``run_dir`` is
    fresh for every iteration and receives the artefact
    (``run_dir / artefact_name(...)``).
    """

    python = sys.executable
    name = workload_spec["name"]
    out = str(run_dir / artefact_name(name))
    if name == "fig8-paper":
        return [[python, "-m", "repro", "sweep", "--figure", "8",
                 "--output", out]]
    if name == "fig7-paper":
        return [[python, "-m", "repro", "sweep", "--figure", "7",
                 "--output", out]]
    if name == "ablation-paper":
        return [[python, str(ABLATION_SCRIPT), "--grid",
                 str(inputs_dir / "grid.json"), "--output", out]]
    store = str(run_dir / "store")
    return [[python, "-m", "repro", "dse", "dispatch", *_space_flags(workload_spec),
             "--workers", str(workload_spec["workers"]), "--store", store],
            [python, "-m", "repro", "dse", "export", "--store", store,
             "--output", out]]


def reference_commands(workload_spec, ref_dir: Path) -> List[List[str]]:
    """A serial run whose export the dispatched export must equal byte for byte."""

    python = sys.executable
    store = str(ref_dir / "store")
    return [[python, "-m", "repro", "dse", "run", *_space_flags(workload_spec),
             "--store", store],
            [python, "-m", "repro", "dse", "export", "--store", store,
             "--output", str(ref_dir / "export.json")]]


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def load_golden() -> Dict[str, Dict[str, dict]]:
    """Golden entries keyed ``"L6-cap22-GS"``/``"L6-cap22-IS"`` -> app."""

    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["entries"]


def _hex(value: float) -> str:
    return float(value).hex()


def _seconds_hex(us_hex: str) -> str:
    # SimulationResult.duration_seconds is ``duration * 1e-6``.
    return (float.fromhex(us_hex) * 1e-6).hex()


def _valid_fidelity(value) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def _valid_runtime(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value > 0.0


def check_artefact(workload_spec, payload, golden) -> Tuple[int, List[str]]:
    """``(failed_points, problems)`` for one artefact of a workload.

    A point fails when it is missing, not a valid value, or -- where it
    overlaps the golden file (L6, capacity 22, FM, default model) -- not
    bit-identical to the golden metrics.
    """

    name = workload_spec["name"]
    if name == "fig8-paper":
        # Series keyed "<gate>-<reorder>"; FM at L6 is golden.
        columns = {f"{gate}-{reorder}": f"L6-cap22-{reorder}" if gate == "FM" else None
                   for reorder in workload_spec["reorders"]
                   for gate in workload_spec["gates"]}
        return _check_series(workload_spec, payload, golden, columns)
    if name == "fig7-paper":
        # Series keyed by topology; the sweep runs FM-GS, so L6 is golden.
        columns = {topology: "L6-cap22-GS" if topology == "L6" else None
                   for topology in workload_spec["topologies"]}
        return _check_series(workload_spec, payload, golden, columns)
    if name == "ablation-paper":
        return _check_ablation(workload_spec, payload, golden)
    return _check_export(workload_spec, payload, golden)


def _check_series(workload_spec, payload, golden, columns):
    """A figure bundle: ``fidelity``/``runtime_s`` -> app -> column -> series
    over the capacities; ``columns`` maps each column to its golden key."""

    failed, problems = 0, []
    capacities = workload_spec["capacities"]
    cap22 = capacities.index(22)
    for app in workload_spec["apps"]:
        for column, golden_key in columns.items():
            fid = payload.get("fidelity", {}).get(app, {}).get(column)
            run = payload.get("runtime_s", {}).get(app, {}).get(column)
            if not (isinstance(fid, list) and isinstance(run, list)
                    and len(fid) == len(run) == len(capacities)):
                failed += len(capacities)
                problems.append(f"{app} {column}: series missing")
                continue
            for index in range(len(capacities)):
                ok = _valid_fidelity(fid[index]) and _valid_runtime(run[index])
                if ok and golden_key is not None and index == cap22:
                    entry = golden[golden_key][app]["metrics"]
                    ok = (_hex(fid[index]) == entry["fidelity"] and
                          _hex(run[index]) == _seconds_hex(entry["duration"]))
                    if not ok:
                        problems.append(f"{app} {column} cap22: differs from golden")
                failed += not ok
    return failed, problems


def _check_ablation(workload_spec, payload, golden):
    failed, problems = 0, []
    grid = workload_spec["model_grid"]
    programs = {(item.get("app"), item.get("reorder")): item
                for item in payload.get("programs", [])}
    for reorder in workload_spec["reorders"]:
        for app in workload_spec["apps"]:
            item = programs.get((app, reorder))
            points = item.get("points") if item else None
            if not isinstance(points, list) or len(points) != len(grid):
                failed += len(grid)
                problems.append(f"{app} {reorder}: points missing")
                continue
            for index, point in enumerate(points):
                ok = (isinstance(point, list) and len(point) == 3
                      and _valid_fidelity(point[0]) and _valid_runtime(point[1]))
                if ok and index == 0:
                    # Grid entry 0 is the default model: the golden point.
                    entry = golden[f"L6-cap22-{reorder}"][app]
                    ok = (item.get("program") == entry["program"]
                          and item.get("num_ops") == entry["num_ops"]
                          and item.get("default_metrics") == entry["metrics"])
                    if not ok:
                        problems.append(f"{app} {reorder}: differs from golden")
                failed += not ok
    return failed, problems


#: Export-row metric -> how to derive it from a golden ``metrics`` entry.
_EXPORT_GOLDEN = {
    "duration_us": lambda m: m["duration"],
    "duration_s": lambda m: _seconds_hex(m["duration"]),
    "computation_s": lambda m: _seconds_hex(m["computation_time"]),
    "communication_s": lambda m: _seconds_hex(m["communication_time"]),
    "fidelity": lambda m: m["fidelity"],
    "log_fidelity": lambda m: m["log_fidelity"],
    "max_motional_energy": lambda m: m["max_motional_energy"],
    "mean_background_error": lambda m: m["mean_background_error"],
    "mean_motional_error": lambda m: m["mean_motional_error"],
    "num_shuttles": lambda m: float(m["num_shuttles"]).hex(),
    "num_ms_gates": lambda m: float(m["num_ms_gates"]).hex(),
}


def _check_export(workload_spec, payload, golden):
    failed, problems = 0, []
    rows = payload.get("rows")
    if not isinstance(rows, list):
        return workload_spec["points"], ["export has no rows"]
    seen = set()
    for row in rows:
        point = row.get("point", {})
        config = point.get("config", {})
        key = (point.get("app"), config.get("topology"), config.get("trap_capacity"),
               config.get("gate"), config.get("reorder"))
        metrics = row.get("metrics", {})
        ok = (key not in seen and _valid_fidelity(metrics.get("fidelity"))
              and _valid_runtime(metrics.get("duration_s")))
        seen.add(key)
        if ok and key[1:4] == ("L6", 22, "FM") and key[0] in workload_spec["apps"]:
            entry = golden[f"L6-cap22-{key[4]}"][key[0]]
            ok = (row.get("program_ops") == entry["num_ops"] and
                  all(_hex(metrics.get(name, math.nan)) == derive(entry["metrics"])
                      for name, derive in _EXPORT_GOLDEN.items()))
            if not ok:
                problems.append(f"{key}: differs from golden")
        failed += not ok
    expected = {(app, topology, capacity, gate, reorder)
                for app in workload_spec["apps"]
                for topology in workload_spec["topologies"]
                for capacity in workload_spec["capacities"]
                for gate in workload_spec["gates"]
                for reorder in workload_spec["reorders"]}
    missing = len(expected - seen)
    if missing:
        problems.append(f"{missing} design points missing from the export")
    return failed + missing, problems
