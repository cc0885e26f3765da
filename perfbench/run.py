#!/usr/bin/env python3
"""Paper-scale toolflow benchmark: end-to-end metrics, per-layer attribution.

Run from the repository root (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload fig8-paper --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload fig8-paper --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Each iteration runs the workload's processes fresh, from interpreter start to
written artefact, and checks the artefact.  ``--trace 0`` reports the
end-to-end metrics of untraced iterations; ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics of the traced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Fewest untraced iterations (``--trace 0``) and untraced/traced pairs
#: (``--trace 1``) a run makes, even when they overrun ``--seconds``.
MIN_ITERATIONS = 3
MIN_PAIRS = 2
PROCESS_TIMEOUT_S = 150.0

#: End-to-end metric -> unit.
END_TO_END = {"wall_s": "s", "points_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}

#: Seconds :func:`_probe` takes on the reference machine (2-vCPU Intel Xeon
#: VM at 2.1 GHz, uncontended).  Every time the benchmark reports is scaled
#: by ``(PROBE_REFERENCE_S / probe) ** CONTENTION_EXPONENT``, with ``probe``
#: the mean of the probes measured just before and just after it.  On that
#: machine, under the host's contention, the toolflow's time grows as the
#: probe's to the power 0.65 (least-squares fit over 91 fig8-paper
#: iterations; README "Noise" has the data).
PROBE_REFERENCE_S = 0.060
CONTENTION_EXPONENT = 0.65


class BenchError(RuntimeError):
    """A process of the workload failed or the run cannot go on."""


def _env(layer_dir=None):
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    env.pop("PERFBENCH_LAYER_DIR", None)
    if layer_dir is not None:
        paths.insert(0, str(BENCH_DIR / "hook"))
        env["PERFBENCH_LAYER_DIR"] = str(layer_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_process(argv, env, log):
    """Run one process to its exit: ``(pid, wall_s, cpu_s, peak_rss_kb)``.

    CPU time and peak RSS come from ``wait4`` and so include every
    descendant the process waited for (dispatched workers).  The process
    leads its own process group, which is killed on timeout or failure so
    that no descendant outlives the iteration.
    """

    log.flush()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                            stderr=subprocess.STDOUT, start_new_session=True)
    finished = threading.Event()

    def on_timeout():
        if not finished.is_set():
            _kill_group(proc.pid)

    timer = threading.Timer(PROCESS_TIMEOUT_S, on_timeout)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        finished.set()
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)
        raise BenchError(f"{' '.join(argv[1:5])} ... exited with "
                         f"{proc.returncode}; log: {log.name}")
    return proc.pid, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class _ProbeOp:
    __slots__ = ("a", "b", "finish")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b, self.finish = a, b, 0.0


def _probe() -> float:
    """Current machine speed: median seconds of three runs of a fixed
    interpreter-bound kernel shaped like the toolflow's inner loops (small
    slotted objects, attribute and list accesses, no I/O)."""

    times = []
    for _ in range(3):
        start = time.perf_counter()
        ops = [_ProbeOp(i % 64, i * 31 % 64) for i in range(120_000)]
        finish = [0.0] * 64
        for op in ops:
            ready = max(finish[op.a], finish[op.b])
            op.finish = finish[op.a] = finish[op.b] = ready + 1.5
        times.append(time.perf_counter() - start)
    return median(times)


def _speed(before: float, after: float) -> float:
    """Factor turning a time measured between two probes into reference
    seconds."""

    return (PROBE_REFERENCE_S / ((before + after) / 2)) ** CONTENTION_EXPONENT


def _setup(wspec, base: Path) -> float:
    """Fresh work directory, generated inputs, and one warm-up interpreter
    that imports the package (bytecode written, files cached)."""

    start = time.perf_counter()
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    workloads.prepare_inputs(wspec, base)
    with open(base / "setup.log", "w") as log:
        _run_process([sys.executable, "-c", "import repro.cli"], _env(), log)
    return time.perf_counter() - start


def _iteration(wspec, base: Path, index: int, traced: bool, golden) -> dict:
    run_dir = base / f"it{index}"
    run_dir.mkdir()
    env = _env(run_dir / "layers" if traced else None)
    processes, cpu_s, rss_kb = [], 0.0, 0
    with open(run_dir / "log.txt", "w") as log:
        for argv in workloads.commands(wspec, base, run_dir):
            pid, wall, cpu, rss = _run_process(argv, env, log)
            processes.append((pid, wall))
            cpu_s += cpu
            rss_kb = max(rss_kb, rss)
    artefact = (run_dir / workloads.artefact_name(wspec["name"])).read_bytes()
    failed, problems = workloads.check_artefact(wspec, json.loads(artefact), golden)
    result = {
        "traced": traced,
        "wall_s": sum(wall for _, wall in processes),
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "digest": hashlib.sha256(artefact).hexdigest(),
        "failed": failed,
        "problems": problems,
    }
    if traced:
        result["layers"], result["golden_checked"], mismatches = \
            layers.collect(run_dir, processes)
        result["failed"] += len(mismatches)
        result["problems"] += mismatches
    shutil.rmtree(run_dir)
    return result


def _reference_digest(wspec) -> str:
    """Digest of a serial ``dse run`` export of the dispatched space.

    The serial run is made once per workload spec and source tree (keyed by
    both) and its digest kept under ``.perfbench_work/references``; it is
    never timed.
    """

    key = hashlib.sha256(workloads.fingerprint(wspec).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        key.update(path.relative_to(ROOT).as_posix().encode())
        key.update(path.read_bytes())
    cached = WORK / "references" / f"{key.hexdigest()}.sha256"
    if cached.is_file():
        return cached.read_text().strip()
    ref_dir = WORK / "references" / "run"
    shutil.rmtree(ref_dir, ignore_errors=True)
    ref_dir.mkdir(parents=True)
    with open(ref_dir / "log.txt", "w") as log:
        for argv in workloads.reference_commands(wspec, ref_dir):
            _run_process(argv, _env(), log)
    digest = hashlib.sha256((ref_dir / "export.json").read_bytes()).hexdigest()
    shutil.rmtree(ref_dir)
    cached.write_text(digest + "\n")
    return digest


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the run record."""

    wspec = workloads.spec(name, seed)
    golden = workloads.load_golden()
    base = WORK / name
    # A probe runs between consecutive set-ups and iterations; each one's
    # time is scaled by the mean of the probes on either side of it.
    probe = _probe()
    setups = []
    for _ in range(SETUPS):
        raw = _setup(wspec, base)
        after = _probe()
        setups.append({"raw_s": raw, "speed": _speed(probe, after)})
        probe = after

    results = []
    started = time.perf_counter()
    cycle = (False, True) if trace else (False,)
    minimum = MIN_PAIRS if trace else MIN_ITERATIONS
    rounds = []
    while True:
        round_start = time.perf_counter()
        for traced in cycle:
            result = _iteration(wspec, base, len(results), traced, golden)
            after = _probe()
            result["speed"] = _speed(probe, after)
            probe = after
            results.append(result)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if len(rounds) >= minimum and elapsed + median(rounds) > seconds:
            break

    points = wspec["points"]
    attempted = points * len(results)
    failed = sum(result["failed"] for result in results)
    problems = [problem for result in results for problem in result["problems"]]
    first = results[0]["digest"]
    for result in results[1:]:
        if result["digest"] != first:
            failed += points
            problems.append("artefact digest differs between iterations")
    if name == "dispatch-2":
        reference = _reference_digest(wspec)
        for result in results:
            if result["digest"] != reference:
                failed += points
                problems.append("dispatched export differs from the serial export")
    failed = min(failed, attempted)

    untraced = [result for result in results if not result["traced"]]
    walls = [result["wall_s"] * result["speed"] for result in untraced]
    record = {
        "workload": name,
        "workload_fingerprint": workloads.fingerprint(wspec),
        "seed": seed,
        "trace": int(trace),
        "iterations": {"untraced": len(untraced),
                       "traced": len(results) - len(untraced)},
        "artefact_sha256": first,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "golden_checked_in_traced": sum(result.get("golden_checked", 0)
                                        for result in results),
        "walls_s": walls,
        "raw_walls_s": [result["wall_s"] for result in untraced],
        "raw_cpus_s": [result["cpu_s"] for result in untraced],
        "speeds": [result["speed"] for result in untraced],
        "setups": setups,
    }
    if trace:
        record["metrics"] = _layer_metrics(name, results, walls)
    else:
        wall = median(walls)
        record["metrics"] = {
            "wall_s": wall,
            "points_per_s": points / wall,
            "cpu_s": median([result["cpu_s"] * result["speed"]
                             for result in untraced]),
            "peak_rss_mb": median([result["peak_rss_mb"] for result in untraced]),
            "setup_s": median([setup["raw_s"] * setup["speed"] for setup in setups]),
        }
    return record


def _layer_metrics(name: str, results, untraced_walls) -> dict:
    traced = [result for result in results if result["traced"]]
    differing = [metric for metric in layers.exact_counts(name)
                 if len({result["layers"][metric] for result in traced}) > 1]
    if differing:
        raise BenchError("exact-count self-check failed on " + name + ": " +
                         ", ".join(f"{metric} {[r['layers'][metric] for r in traced]}"
                                   for metric in differing))
    metrics = {metric: median([result["layers"][metric] for result in traced])
               for metric in layers.METRICS if metric != "obs.trace_overhead_frac"}
    traced_wall = median([result["wall_s"] * result["speed"] for result in traced])
    metrics["obs.trace_overhead_frac"] = traced_wall / median(untraced_walls) - 1.0
    return {metric: metrics[metric] for metric in layers.METRICS}


def _report(record: dict) -> None:
    name = record["workload"]
    counts = record["iterations"]
    print(f"== {name}  seed {record['seed']}  trace {record['trace']}  "
          f"iterations {counts['untraced']} untraced + {counts['traced']} traced")
    print(f"   workload fingerprint {record['workload_fingerprint']}")
    print(f"   artefact sha256 {record['artefact_sha256']}")
    frac = record["failed"] / record["attempted"]
    print(f"   correctness: {record['failed']} of {record['attempted']} points "
          f"failed (failed_frac {frac:.6g})")
    if record["trace"]:
        print(f"   golden compiles/simulations checked in traced iterations: "
              f"{record['golden_checked_in_traced']}")
        same = not any("digest differs" in problem for problem in record["problems"])
        print(f"   traced artefacts byte-identical to untraced: {'yes' if same else 'NO'}")
    for problem in record["problems"]:
        print(f"   problem: {problem}")
    print("   untraced wall_s samples (raw s x speed): " + ", ".join(
        f"{raw:.3f}x{speed:.3f}"
        for raw, speed in zip(record["raw_walls_s"], record["speeds"])))
    units = layers.METRICS if record["trace"] else END_TO_END
    for metric, value in record["metrics"].items():
        print(f"   {metric:32s} {value:14.6g} {units[metric]}")


def _save(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measuring time per workload (default: 60)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _save(record)
            _report(record)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = layers.METRICS if args.trace else END_TO_END
    prefix = len(records) > 1
    metrics = {
        (f"{record['workload']}.{metric}" if prefix else metric):
            {"value": value, "unit": units[metric]}
        for record in records for metric, value in record["metrics"].items()
    }
    failed = sum(record["failed"] for record in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
