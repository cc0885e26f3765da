"""Windowed time-series aggregation over fleet telemetry (``repro dse top``).

PR 7 gave every dispatched worker an append-only event log under
``<store>/telemetry/`` and folded the directory into per-worker *totals*
(:func:`repro.dse.dispatch.telemetry_summary`).  Totals answer "how much
happened"; a live fleet needs "how much is happening *now*" -- so this
module turns the same event logs into fixed-width time-series buckets:

* :class:`TelemetryReader` -- an incremental, O(new-rows) reader over the
  telemetry directory through the shared append log
  (:mod:`repro.io.appendlog`).  Rotated segments and compacted summary
  rows (see :class:`repro.dse.dispatch.WorkerTelemetry`) are read
  transparently; :func:`fold_event` is the one fold of their events.
* :func:`fold_timeline` -- deterministic aggregation of an event list into
  per-worker and fleet-wide bucket series (points, wall_s, claims, losses,
  heartbeats, cache hits/misses).  Same events in, byte-identical series
  out, regardless of how the events were split across worker files.
* :func:`detect_stragglers` -- a worker whose rolling points/s falls
  ``k * MAD`` below the fleet median, or whose last telemetry event is
  older than a fraction of the lease TTL, is flagged *before* its lease
  expires -- the early-warning analogue of lease reclaim.
* :func:`render_top` -- one dashboard frame (pure text, deterministic for
  a fixed snapshot), which ``repro dse top`` re-renders in place.

All wall-clock readings go through the injectable
:class:`~repro.dse.dispatch.LeaseClock`, so every series and frame is
drivable by a fake clock in tests -- no sleeps, no real fleets.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.io.appendlog import LogReader
from repro.obs.trace import span

__all__ = [
    "DEFAULT_BUCKET_S",
    "DEFAULT_WINDOW_BUCKETS",
    "FleetMonitor",
    "TelemetryReader",
    "detect_stragglers",
    "fold_timeline",
    "render_top",
    "rolling_rates",
]

#: Default width of one aggregation bucket.
DEFAULT_BUCKET_S = 5.0

#: Default trailing window (in buckets) for rolling rates and sparklines.
DEFAULT_WINDOW_BUCKETS = 12

#: Straggler rate test: flag a worker whose rolling points/s falls this
#: many MADs below the fleet median.
DEFAULT_MAD_K = 3.0

#: Straggler heartbeat test: flag a worker whose last telemetry event is
#: older than this fraction of the lease TTL.  Below 1.0 by design -- the
#: whole point is to flag a stalled (e.g. SIGSTOPped) worker *before* its
#: lease expires and the reclaim machinery kicks in.
DEFAULT_STALL_FRACTION = 0.5

#: Fields of a published bucket (all integers except wall_s).
_BUCKET_FIELDS = ("points", "replayed", "wall_s", "claims", "renews",
                  "losses", "done", "cache_hits", "cache_misses")

#: Zeroed :func:`fold_event` totals, named as in a compacted ``summary``
#: row (``renews``/``lost`` stay, so older builds' ``seg0`` files read).
ZERO_TOTALS = {"claims": 0, "renews": 0, "lost": 0, "done": 0, "points": 0,
               "replayed": 0, "wall_s": 0.0}

#: The counter each telemetry event kind increments.
_EVENT_COUNTERS = {"claim": "claims", "renew": "renews",
                   "lease_lost": "lost", "done": "done"}


def _event_sort_key(record: Dict[str, object]) -> Tuple:
    """A total, content-only ordering of telemetry events.

    ``(t, owner)`` alone is not total (a fake clock can stamp several
    events identically); the canonical JSON of the record breaks ties, so
    float accumulation order -- and therefore the folded series bytes --
    is a pure function of the event *set*.
    """

    t = record.get("t")
    return (float(t) if isinstance(t, (int, float)) else 0.0,
            str(record.get("owner", "")),
            json.dumps(record, sort_keys=True, default=str))


def parse_segment(name: str) -> Optional[Tuple[str, int]]:
    """``(stem, k)`` when ``name`` is a rotated ``<stem>.seg<k>.jsonl``
    (``k == 0``: the compacted summary segment)."""

    stem, dot, segment = name[:-len(".jsonl")].rpartition(".")
    if (name.endswith(".jsonl") and dot and segment.startswith("seg")
            and segment[len("seg"):].isdigit()):
        return stem, int(segment[len("seg"):])
    return None


class TelemetryReader:
    """Incremental reader of ``<store>/telemetry/*.jsonl`` event logs.

    :meth:`poll` reads through the shared append log
    (:class:`~repro.io.appendlog.LogReader`), which rescans once rotation
    or compaction replaced or deleted a log.  The telemetry rule added here
    is the ``folded_through`` guard: events of a raw segment a summary row
    already accounts for are left out of :attr:`events`.
    """

    def __init__(self, store_dir) -> None:
        from repro.dse.dispatch import TELEMETRY_DIR

        self.directory = Path(store_dir) / TELEMETRY_DIR
        self._reader = LogReader(self.directory, self._take,
                                 reset=self._reset)
        # (sort key, segment of the source file, event), kept sorted.
        self._records: List[Tuple[Tuple, Optional[Tuple[str, int]],
                                  Dict[str, object]]] = []
        self._folded: Dict[str, int] = {}
        self._added = 0

    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[Dict[str, object]]:
        """Every ingested event, in the canonical content ordering."""

        return [record for _, segment, record in self._records
                if segment is None
                or not 0 < segment[1] <= self._folded.get(segment[0], 0)]

    def poll(self) -> int:
        """Ingest newly appended events; returns how many were added."""

        self._added = 0
        self._reader.poll()
        if self._added:
            self._records.sort(key=itemgetter(0))
        return self._added

    def _take(self, name: str, lineno: int,
              record: Dict[str, object]) -> None:
        segment = parse_segment(name)
        through = record.get("folded_through")
        if segment is not None and segment[1] == 0 and isinstance(through, int):
            self._folded[segment[0]] = max(self._folded.get(segment[0], 0),
                                           through)
        self._records.append((_event_sort_key(record), segment, record))
        self._added += 1

    def _reset(self) -> None:
        self._records.clear()
        self._folded.clear()


# --------------------------------------------------------------------------- #
# The one fold of telemetry events into totals
# --------------------------------------------------------------------------- #
def fold_event(row: Dict[str, object], record: Dict[str, object]) -> None:
    """Add one telemetry event, or a compacted ``summary`` row, to ``row``.

    The one fold behind compaction, ``telemetry_summary`` and the timeline:
    :data:`ZERO_TOTALS` counts and sums, plus the worker's ``alive`` flag
    (from its start and exit markers), ``last_event`` and latest ``t``.  A
    summary row carries the ``alive`` and ``last_event`` of the history it
    folded; the (ordered) live events after it refine them.
    """

    event = record.get("event")
    if event == "summary":
        for key in ZERO_TOTALS:
            value = record.get(key)
            if isinstance(value, (int, float)):
                row[key] += value
        if record.get("alive") is not None:
            row["alive"] = bool(record["alive"])
        event = record.get("last_event") or event
    elif event in _EVENT_COUNTERS:
        row[_EVENT_COUNTERS[event]] += 1
        if event == "done":
            row["points"] += int(record.get("points") or 0)
            row["replayed"] += int(record.get("replayed") or 0)
            row["wall_s"] += float(record.get("wall_s") or 0.0)
    elif event in ("worker_start", "worker_exit"):
        row["alive"] = event == "worker_start"
    row["last_event"] = event
    t = record.get("t")
    if isinstance(t, (int, float)) and (row["t"] is None or t > row["t"]):
        row["t"] = float(t)


def fold_workers(events: Sequence[Dict[str, object]], *,
                 now: float) -> Dict[str, Dict[str, object]]:
    """Fold ordered telemetry events into the per-worker rows of
    :func:`repro.dse.dispatch.telemetry_summary`, aged at ``now``."""

    rows: Dict[str, Dict[str, object]] = {}
    for record in events:
        owner = record.get("owner")
        if not isinstance(owner, str) or not owner:
            continue
        row = rows.setdefault(owner, dict(ZERO_TOTALS, alive=False,
                                          last_event=None, t=None,
                                          phase=None))
        fold_event(row, record)
        if "phase" in record:
            phase = record["phase"]
            row["phase"] = phase if isinstance(phase, str) else None
        elif row["last_event"] in ("done", "lease_lost", "worker_exit"):
            row["phase"] = None  # the work unit's span closed with it
    workers: Dict[str, Dict[str, object]] = {}
    for owner, row in rows.items():
        last = row.pop("t")
        workers[owner] = {("renewals" if key == "renews" else key): value
                          for key, value in row.items()}
        workers[owner]["last_seen_age_s"] = (max(0.0, now - last)
                                             if last is not None else None)
    return workers


# --------------------------------------------------------------------------- #
# Folding events into fixed-width buckets
# --------------------------------------------------------------------------- #
def _empty_bucket() -> Dict[str, object]:
    return dict(ZERO_TOTALS, alive=None, last_event=None, t=None,
                cache_hits=0, cache_misses=0)


def _fold_bucket(bucket: Dict[str, object], record: Dict[str, object]) -> None:
    fold_event(bucket, record)
    counters = record.get("counters")
    if record.get("event") == "done" and isinstance(counters, dict):
        bucket["cache_hits"] += int(counters.get("cache.hits") or 0)
        bucket["cache_misses"] += int(counters.get("cache.misses") or 0)


def _published(bucket: Dict[str, object]) -> Dict[str, object]:
    """A bucket under its published field names (``losses``, not ``lost``)."""

    return {field: bucket["lost" if field == "losses" else field]
            for field in _BUCKET_FIELDS}


def fold_timeline(events: Sequence[Dict[str, object]], *,
                  bucket_s: float = DEFAULT_BUCKET_S,
                  origin_t: Optional[float] = None,
                  until_t: Optional[float] = None) -> Dict[str, object]:
    """Fold telemetry events into per-worker and fleet-wide bucket series.

    Buckets are fixed-width (``bucket_s`` seconds) and anchored at
    ``origin_t`` -- by default the earliest event timestamp floored to a
    bucket boundary, so the series is a pure function of the events.
    ``until_t`` (usually the lease clock's *now*) extends the range so a
    stalled fleet shows trailing zero buckets instead of freezing at its
    last event.

    Per bucket: ``points`` / ``replayed`` / ``wall_s`` (from ``done``
    events), ``claims`` / ``renews`` / ``losses`` / ``done`` counts, and
    ``cache_hits`` / ``cache_misses`` from the per-``done`` metrics
    counter deltas workers ship since this PR.  Compacted ``summary`` rows
    represent history older than any live bucket and fold into the
    ``compacted`` totals instead of spiking one bucket.

    Determinism: events are processed in the canonical content ordering
    (:func:`_event_sort_key`), so the same event set yields byte-identical
    series no matter how it was split across worker files, ``--jobs``
    values or shard layouts.
    """

    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    with span("obs.timeline.fold", events=len(events)):
        ordered = sorted(events, key=_event_sort_key)
        stamped = [record for record in ordered
                   if isinstance(record.get("t"), (int, float))
                   and isinstance(record.get("owner"), str)]
        timeline: Dict[str, object] = {
            "bucket_s": float(bucket_s),
            "origin_t": None,
            "num_buckets": 0,
            "fleet": [],
            "workers": {},
            "compacted": {},
        }
        live = [record for record in stamped
                if record.get("event") != "summary"]
        if live:
            first_t = min(float(record["t"]) for record in live)
            last_t = max(float(record["t"]) for record in live)
            if until_t is not None:
                last_t = max(last_t, float(until_t))
            origin = (math.floor(first_t / bucket_s) * bucket_s
                      if origin_t is None else float(origin_t))
            count = max(1, math.floor((last_t - origin) / bucket_s) + 1)
        elif origin_t is not None:
            origin = float(origin_t)
            count = 1
        else:
            origin = None
            count = 0
        timeline["origin_t"] = origin
        timeline["num_buckets"] = count
        fleet = [_empty_bucket() for _ in range(count)]
        workers: Dict[str, List[Dict[str, object]]] = {}
        compacted: Dict[str, Dict[str, object]] = {}
        for record in stamped:
            owner = record["owner"]
            if record.get("event") == "summary":
                fold_event(compacted.setdefault(owner, _empty_bucket()),
                           record)
                continue
            index = math.floor((float(record["t"]) - origin) / bucket_s)
            if not 0 <= index < count:
                index = max(0, min(count - 1, index))
            series = workers.setdefault(
                owner, [_empty_bucket() for _ in range(count)])
            for bucket in (series[index], fleet[index]):
                _fold_bucket(bucket, record)
        timeline["fleet"] = [_published(bucket) for bucket in fleet]
        timeline["workers"] = {owner: [_published(bucket)
                                       for bucket in workers[owner]]
                               for owner in sorted(workers)}
        timeline["compacted"] = {owner: _published(compacted[owner])
                                 for owner in sorted(compacted)}
        return timeline


def rolling_rates(timeline: Dict[str, object], *,
                  window: int = DEFAULT_WINDOW_BUCKETS) -> Dict[str, float]:
    """Per-worker points/s over the trailing ``window`` buckets."""

    count = timeline["num_buckets"]
    if not count:
        return {}
    take = max(1, min(int(window), count))
    window_s = take * timeline["bucket_s"]
    return {owner: sum(bucket["points"] for bucket in series[-take:]) / window_s
            for owner, series in timeline["workers"].items()}


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


# --------------------------------------------------------------------------- #
# Straggler / stall detection
# --------------------------------------------------------------------------- #
def detect_stragglers(workers: Dict[str, Dict[str, object]], *,
                      ttl_s: float,
                      timeline: Optional[Dict[str, object]] = None,
                      window: int = DEFAULT_WINDOW_BUCKETS,
                      k: float = DEFAULT_MAD_K,
                      stall_fraction: float = DEFAULT_STALL_FRACTION,
                      ) -> Dict[str, List[str]]:
    """Flag workers that are stalling or falling behind the fleet.

    ``workers`` is a :func:`repro.dse.dispatch.telemetry_summary` mapping.
    Two independent tests, both tuned to fire *before* the lease machinery
    would (so an operator sees the straggler while its lease is still
    active):

    * **stall** -- an alive worker whose last telemetry event is older
      than ``stall_fraction * ttl_s`` (a SIGSTOPped or wedged process
      stops emitting long before its lease's TTL runs out);
    * **slow** -- with at least three alive workers, one whose rolling
      points/s over the trailing ``window`` buckets falls more than
      ``k`` median-absolute-deviations below the fleet median (the MAD is
      floored at 10% of the median so a perfectly uniform fleet never
      flags its slowest member over noise).

    Returns ``{owner: [reason, ...]}`` for the flagged workers only.
    """

    if ttl_s <= 0:
        raise ValueError("ttl_s must be positive")
    flags: Dict[str, List[str]] = {}
    alive = {owner: row for owner, row in workers.items()
             if row.get("alive")}
    budget_s = stall_fraction * ttl_s
    for owner in sorted(alive):
        age = alive[owner].get("last_seen_age_s")
        if isinstance(age, (int, float)) and age > budget_s:
            flags.setdefault(owner, []).append(
                f"stalled: last event {age:.1f}s ago "
                f"(> {budget_s:.1f}s of the {ttl_s:.0f}s lease budget)")
    if timeline is not None and len(alive) >= 3:
        rates = {owner: rate
                 for owner, rate in rolling_rates(timeline,
                                                  window=window).items()
                 if owner in alive}
        if len(rates) >= 3:
            median = _median(list(rates.values()))
            mad = _median([abs(rate - median) for rate in rates.values()])
            spread = max(mad, 0.1 * median)
            threshold = median - k * spread
            if median > 0:
                for owner in sorted(rates):
                    if rates[owner] < threshold:
                        flags.setdefault(owner, []).append(
                            f"slow: {rates[owner]:.3f} points/s vs fleet "
                            f"median {median:.3f} (k={k:g} MADs below)")
    return flags


# --------------------------------------------------------------------------- #
# FleetMonitor: the stateful snapshot assembler behind `repro dse top`
# --------------------------------------------------------------------------- #
class FleetMonitor:
    """Incremental fleet snapshots of one dispatched store directory.

    Owns the persistent pieces a live dashboard needs -- the incremental
    :class:`TelemetryReader` and a
    :class:`~repro.dse.dispatch.StoreProgress` store view -- so each
    :meth:`snapshot` tick costs new rows, not a directory re-parse.  Works
    on any dispatched store from the outside (manifest + work ledger +
    telemetry), grid or adaptive, no
    :class:`~repro.dse.dispatch.Dispatcher` object required, so ``dse
    top`` can watch a fleet some other process (or machine) launched.  A
    store whose manifest :func:`~repro.dse.dispatch.read_manifest` refuses
    shows telemetry without point progress.

    Every timestamp flows through the injectable ``clock``
    (:class:`~repro.dse.dispatch.LeaseClock`), so a fake clock drives the
    whole dashboard in tests.
    """

    def __init__(self, store_dir, *,
                 bucket_s: float = DEFAULT_BUCKET_S,
                 window: int = DEFAULT_WINDOW_BUCKETS,
                 ttl_s: Optional[float] = None,
                 k: float = DEFAULT_MAD_K,
                 stall_fraction: float = DEFAULT_STALL_FRACTION,
                 clock=None) -> None:
        from repro.dse.dispatch import (
            DEFAULT_TTL_S,
            LeaseClock,
            StoreProgress,
            read_manifest,
        )

        self.store_dir = Path(store_dir)
        self.bucket_s = float(bucket_s)
        self.window = int(window)
        self.k = float(k)
        self.stall_fraction = float(stall_fraction)
        self.clock = clock if clock is not None else LeaseClock()
        self.reader = TelemetryReader(store_dir)
        try:
            self.manifest: Optional[Dict[str, object]] = \
                read_manifest(self.store_dir)
        except ValueError:
            self.manifest = None
        if ttl_s is not None:
            self.ttl_s = float(ttl_s)
        elif self.manifest is not None:
            self.ttl_s = float(self.manifest.get("ttl_s", DEFAULT_TTL_S))
        else:
            self.ttl_s = DEFAULT_TTL_S
        self._store_progress = StoreProgress(self.store_dir)

    def _progress(self) -> Dict[str, object]:
        """Dispatcher-style progress from the store's own records."""

        from repro.dse.dispatch import WorkLedger
        from repro.dse.space import DesignSpace

        total = shards = None
        if self.manifest is not None:
            total = DesignSpace.from_dict(self.manifest["space"]).size
            shards = WorkLedger.for_store(self.store_dir, ttl_s=self.ttl_s,
                                          clock=self.clock).status_counts()
        try:
            return self._store_progress.snapshot(total, shards=shards)
        except (OSError, ValueError):
            return {}

    def snapshot(self) -> Dict[str, object]:
        """Poll everything and assemble one :func:`render_top` snapshot."""

        self.reader.poll()
        now = self.clock.now()
        events = self.reader.events
        timeline = fold_timeline(events, bucket_s=self.bucket_s, until_t=now)
        workers = fold_workers(events, now=now)
        stragglers = detect_stragglers(workers, ttl_s=self.ttl_s,
                                       timeline=timeline, window=self.window,
                                       k=self.k,
                                       stall_fraction=self.stall_fraction)
        return {
            "store": str(self.store_dir),
            "progress": self._progress(),
            "workers": workers,
            "timeline": timeline,
            "stragglers": stragglers,
            "ttl_s": self.ttl_s,
        }

    def close(self) -> None:
        self._store_progress.close()


# --------------------------------------------------------------------------- #
# The `dse top` frame
# --------------------------------------------------------------------------- #
def render_top(snapshot: Dict[str, object], *,
               window: int = DEFAULT_WINDOW_BUCKETS,
               width: int = 100) -> str:
    """Render one ``dse top`` frame from an assembled snapshot.

    ``snapshot`` carries ``store`` (label), ``progress`` (the
    dispatcher-style points/shards/eta dict, may be partial), ``workers``
    (the telemetry summary), ``timeline`` (:func:`fold_timeline` output),
    ``stragglers`` (:func:`detect_stragglers` output) and ``ttl_s``.  Pure
    text in, pure text out: a fixed snapshot renders byte-identically,
    which is what the determinism tests pin.
    """

    from repro.visualize.ascii_chart import ascii_sparkline

    progress = snapshot.get("progress") or {}
    workers = snapshot.get("workers") or {}
    timeline = snapshot.get("timeline") or fold_timeline([])
    stragglers = snapshot.get("stragglers") or {}
    bucket_s = timeline["bucket_s"]
    count = timeline["num_buckets"]
    take = max(1, min(int(window), count)) if count else 0
    lines: List[str] = []

    header = f"repro dse top -- {snapshot.get('store', '?')}"
    done = progress.get("points_done")
    total = progress.get("points_total")
    if done is not None and total is not None:
        header += f" -- {done}/{total} points"
        pending = progress.get("points_pending")
        if pending:
            header += f" ({pending} pending)"
    shards = progress.get("shards")
    if shards:
        header += (f" | shards {shards.get('done', 0)} done"
                   f" / {shards.get('active', 0)} active"
                   f" / {shards.get('expired', 0)} expired"
                   f" / {shards.get('open', 0)} open")
    eta_s = progress.get("eta_s")
    if eta_s is not None:
        from repro.dse.dispatch import format_eta

        header += f" | ETA {format_eta(eta_s)}"
    lines.append(header[:width])

    fleet = timeline["fleet"][-take:] if take else []
    window_s = take * bucket_s if take else 0.0
    points = sum(bucket["points"] for bucket in fleet)
    hits = sum(bucket["cache_hits"] for bucket in fleet)
    misses = sum(bucket["cache_misses"] for bucket in fleet)
    wall = sum(bucket["wall_s"] for bucket in fleet)
    rate = points / window_s if window_s else 0.0
    per_point = wall / points if points else None
    hit_rate = hits / (hits + misses) if (hits + misses) else None
    fleet_line = (f"fleet: {rate:.3f} points/s over the last "
                  f"{window_s:.0f}s")
    if per_point is not None:
        fleet_line += f" | {per_point:.3f} wall_s/point"
    if hit_rate is not None:
        fleet_line += f" | cache hit rate {100 * hit_rate:.1f}%"
    fleet_line += (f" | {sum(b['claims'] for b in fleet)} claims, "
                   f"{sum(b['losses'] for b in fleet)} losses")
    lines.append(fleet_line[:width])
    if fleet:
        spark = ascii_sparkline([bucket["points"] for bucket in fleet])
        lines.append(f"points/bucket ({bucket_s:g}s): [{spark}]")

    rates = rolling_rates(timeline, window=window) if count else {}
    lines.append("")
    lines.append(f"workers ({len(workers)}):")
    name_width = max([len(owner) for owner in workers], default=6)
    for owner in sorted(workers):
        row = workers[owner]
        state = "alive " if row.get("alive") else "exited"
        age = row.get("last_seen_age_s")
        age_note = f"{age:6.1f}s" if isinstance(age, (int, float)) else "  never"
        series = timeline["workers"].get(owner)
        spark = (ascii_sparkline([b["points"] for b in series[-take:]])
                 if series and take else "")
        phase = row.get("phase")
        phase_note = f"  in {phase}" if isinstance(phase, str) and phase else ""
        flag_note = ""
        if owner in stragglers:
            flag_note = "  ** STRAGGLER: " + "; ".join(stragglers[owner])
        lines.append(
            f"  {owner:<{name_width}} {state} last {age_note}"
            f"  {rates.get(owner, 0.0):7.3f} pts/s"
            f"  {row.get('done', 0)} done/{row.get('lost', 0)} lost"
            f"/{row.get('claims', 0)} claims"
            f"{phase_note}  [{spark}]{flag_note}")
    if not workers:
        lines.append("  (no telemetry yet -- is this store dispatched?)")
    compacted = timeline.get("compacted") or {}
    if compacted:
        folded_points = sum(t["points"] for t in compacted.values())
        lines.append(f"  (+{folded_points} points in compacted history "
                     f"across {len(compacted)} worker log(s))")
    return "\n".join(lines)
