"""Fleet telemetry: the one reader of the worker streams, and ``repro dse top``.

Each dispatched worker appends to one event stream,
``<store>/telemetry/<owner>.jsonl``
(:class:`repro.dse.dispatch.WorkerTelemetry`): lease events, and span
records when it traces.  This module reads the streams (one reader per
:class:`repro.dse.dispatch.FleetView`) and folds their events:

* :class:`TelemetryReader` -- the incremental, O(new-rows) reader of the
  streams through the shared append log (:mod:`repro.io.appendlog`).  It
  hands over events in a canonical content ordering and span records,
  validated, in the merge ordering of :mod:`repro.obs.distributed`;
  :func:`fold_event` is the one fold of the events into totals, and
  :func:`fold_workers` folds them into the view's per-worker rows.
* :func:`fold_timeline` -- deterministic aggregation of an event list into
  per-worker and fleet-wide bucket series (points, wall_s, claims, losses,
  heartbeats, cache hits/misses).  Same events in, byte-identical series
  out, regardless of how the events were split across worker files.
* :func:`detect_stragglers` -- a worker whose rolling points/s falls
  ``MAD_K`` MADs below the fleet median, or whose last telemetry event is
  older than half the lease TTL, is flagged *before* its lease expires --
  the early-warning analogue of lease reclaim.
* :func:`top_snapshot` and :func:`render_top` -- one dashboard frame from
  one view tick (pure text, deterministic for a fixed snapshot), which
  ``repro dse top`` re-renders in place.

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
from repro.obs.distributed import SPAN_EVENT, span_refusal, span_sort_key
from repro.obs.trace import span

__all__ = [
    "DEFAULT_BUCKET_S",
    "DEFAULT_WINDOW_BUCKETS",
    "TelemetryReader",
    "detect_stragglers",
    "fold_timeline",
    "render_top",
    "rolling_rates",
    "top_snapshot",
]

#: Default width of one aggregation bucket.
DEFAULT_BUCKET_S = 5.0

#: Default trailing window (in buckets) for rolling rates and sparklines.
DEFAULT_WINDOW_BUCKETS = 12

#: Straggler rate test: flag a worker whose rolling points/s falls this
#: many MADs below the fleet median.
MAD_K = 3.0

#: Straggler heartbeat test: flag a worker whose last telemetry event is
#: older than this fraction of the lease TTL.  Below 1.0 by design -- the
#: whole point is to flag a stalled (e.g. SIGSTOPped) worker *before* its
#: lease expires and the reclaim machinery kicks in.
STALL_FRACTION = 0.5

#: Fields of a published bucket (all integers except wall_s).
_BUCKET_FIELDS = ("points", "replayed", "wall_s", "claims", "renews",
                  "losses", "done", "cache_hits", "cache_misses")

#: Zeroed :func:`fold_event` totals.
_ZERO_TOTALS = {"claims": 0, "renews": 0, "lost": 0, "done": 0,
                "points": 0, "replayed": 0, "wall_s": 0.0}

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


class TelemetryReader(LogReader):
    """Incremental reader of the worker streams, ``<store>/telemetry/*.jsonl``.

    :meth:`poll` reads what was appended since the last poll by the append
    log's rules and files each record by kind: :attr:`events`, the lease
    events, in ``(t, owner, canonical JSON)`` order; :attr:`spans`, the
    span records (``"event": "span"``) that pass
    :func:`~repro.obs.distributed.span_refusal`, in the merge order
    (:func:`~repro.obs.distributed.span_sort_key`).  An ``event:
    "summary"`` row, left by an older version's telemetry rotation, is
    skipped with a :class:`~repro.io.appendlog.StoreCorruptionWarning`.
    """

    def __init__(self, store_dir) -> None:
        from repro.dse.dispatch import TELEMETRY_DIR

        super().__init__(Path(store_dir) / TELEMETRY_DIR, self._take,
                         reset=self._clear,
                         counter="telemetry.lines_skipped")
        # (sort key, record) pairs, kept sorted.
        self._events: List[Tuple[Tuple, Dict[str, object]]] = []
        self._spans: List[Tuple[Tuple, Dict[str, object]]] = []
        self._added = 0

    @property
    def events(self) -> List[Dict[str, object]]:
        """Every ingested lease event, in the canonical content ordering."""

        return [record for _, record in self._events]

    @property
    def spans(self) -> List[Dict[str, object]]:
        """Every ingested span record, in the merge ordering."""

        return [record for _, record in self._spans]

    def poll(self) -> int:
        """Ingest newly appended records; returns how many were added."""

        self._added = 0
        super().poll()
        if self._added:
            self._events.sort(key=itemgetter(0))
            self._spans.sort(key=itemgetter(0))
        return self._added

    def _take(self, name: str, lineno: int,
              record: Dict[str, object]) -> Optional[str]:
        event = record.get("event")
        if event == SPAN_EVENT:
            refusal = span_refusal(record)
            if refusal is not None:
                return refusal
            self._spans.append((span_sort_key(record), record))
        elif event == "summary":
            return ("an event: \"summary\" row of the telemetry rotation "
                    "of an older version; its folded totals are not read")
        else:
            self._events.append((_event_sort_key(record), record))
        self._added += 1
        return None

    def _clear(self) -> None:
        self._events.clear()
        self._spans.clear()


# --------------------------------------------------------------------------- #
# The one fold of telemetry events into totals
# --------------------------------------------------------------------------- #
def fold_event(row: Dict[str, object], record: Dict[str, object]) -> None:
    """Add one telemetry event to ``row``.

    The one fold behind the per-worker rows and the timeline:
    :data:`_ZERO_TOTALS` counts and sums, plus the worker's ``alive`` flag
    (from its start and exit markers), ``last_event`` and latest ``t``.
    """

    event = record.get("event")
    if event in _EVENT_COUNTERS:
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
    """The ``workers`` rows of a :class:`repro.dse.dispatch.FleetView` tick.

    Per worker: claims, renewals, losses and completed work units,
    evaluated/replayed points and work wall time, and the age of its latest
    event at ``now`` (``last_seen_age_s``).  ``alive`` follows the
    start/exit markers, so a worker that died without its exit marker shows
    ``alive`` with a growing age.  ``phase`` is the open span traced workers
    stamp on heartbeats (``None`` untraced or between items).
    """

    rows: Dict[str, Dict[str, object]] = {}
    for record in events:
        owner = record.get("owner")
        if not isinstance(owner, str) or not owner:
            continue
        row = rows.setdefault(owner, dict(_ZERO_TOTALS, alive=False,
                                          last_event=None, t=None,
                                          phase=None))
        fold_event(row, record)
        if "phase" in record:
            phase = record["phase"]
            row["phase"] = phase if isinstance(phase, str) else None
        elif row["last_event"] in ("done", "lease_lost", "failed",
                                   "worker_exit"):
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
    return dict(_ZERO_TOTALS, alive=None, last_event=None, t=None,
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
    ``cache_hits`` / ``cache_misses`` from the metrics counter deltas
    each ``done`` event carries.

    Determinism: events are processed in the canonical content ordering
    (:func:`_event_sort_key`), so the same event set yields byte-identical
    series no matter how it was split across worker files, ``--jobs``
    values or shard layouts.
    """

    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    with span("obs.timeline.fold", events=len(events)):
        # Sorted by t first, so the first and last records bound the range.
        stamped = [record for record in sorted(events, key=_event_sort_key)
                   if isinstance(record.get("t"), (int, float))
                   and isinstance(record.get("owner"), str)]
        origin = None if origin_t is None else float(origin_t)
        count = 0 if origin is None else 1
        if stamped:
            last_t = float(stamped[-1]["t"])
            if until_t is not None:
                last_t = max(last_t, float(until_t))
            if origin is None:
                origin = math.floor(float(stamped[0]["t"]) / bucket_s) \
                    * bucket_s
            count = max(1, math.floor((last_t - origin) / bucket_s) + 1)
        fleet = [_empty_bucket() for _ in range(count)]
        workers: Dict[str, List[Dict[str, object]]] = {}
        for record in stamped:
            index = max(0, min(count - 1, math.floor(
                (float(record["t"]) - origin) / bucket_s)))
            series = workers.setdefault(
                record["owner"], [_empty_bucket() for _ in range(count)])
            for bucket in (series[index], fleet[index]):
                _fold_bucket(bucket, record)
        return {
            "bucket_s": float(bucket_s),
            "origin_t": origin,
            "num_buckets": count,
            "fleet": [_published(bucket) for bucket in fleet],
            "workers": {owner: [_published(bucket)
                                for bucket in workers[owner]]
                        for owner in sorted(workers)},
        }


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
                      ) -> Dict[str, List[str]]:
    """Flag workers that are stalling or falling behind the fleet.

    ``workers`` is the per-worker mapping of a
    :class:`repro.dse.dispatch.FleetView` tick (:func:`fold_workers`).
    Two independent tests, both tuned to fire *before* the lease machinery
    would (so an operator sees the straggler while its lease is still
    active):

    * **stall** -- an alive worker whose last telemetry event is older
      than ``STALL_FRACTION * ttl_s`` (a SIGSTOPped or wedged process
      stops emitting long before its lease's TTL runs out);
    * **slow** -- with at least three alive workers, one whose rolling
      points/s over the trailing ``window`` buckets falls more than
      ``MAD_K`` median-absolute-deviations below the fleet median (the MAD
      is floored at 10% of the median so a perfectly uniform fleet never
      flags its slowest member over noise).

    Returns ``{owner: [reason, ...]}`` for the flagged workers only.
    """

    if ttl_s <= 0:
        raise ValueError("ttl_s must be positive")
    flags: Dict[str, List[str]] = {}
    alive = {owner: row for owner, row in workers.items()
             if row.get("alive")}
    budget_s = STALL_FRACTION * ttl_s
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
            threshold = median - MAD_K * spread
            if median > 0:
                for owner in sorted(rates):
                    if rates[owner] < threshold:
                        flags.setdefault(owner, []).append(
                            f"slow: {rates[owner]:.3f} points/s vs fleet "
                            f"median {median:.3f} (k={MAD_K:g} MADs below)")
    return flags


# --------------------------------------------------------------------------- #
# The `dse top` frame
# --------------------------------------------------------------------------- #
def top_snapshot(view, *, bucket_s: float = DEFAULT_BUCKET_S,
                 window: int = DEFAULT_WINDOW_BUCKETS) -> Dict[str, object]:
    """One :func:`render_top` snapshot from one tick of ``view``.

    ``view`` is a :class:`~repro.dse.dispatch.FleetView`: its tick gives
    the point, work-item and worker rows, and its reader's events fold into
    the ``bucket_s`` timeline and the straggler flags over the trailing
    ``window`` buckets, judged against the view's lease TTL.
    """

    progress = view.tick()
    workers = progress.pop("workers")
    timeline = fold_timeline(view.reader.events, bucket_s=bucket_s,
                             until_t=view.clock.now())
    return {
        "store": str(view.store_dir),
        "progress": progress,
        "workers": workers,
        "timeline": timeline,
        "stragglers": detect_stragglers(workers, ttl_s=view.ttl_s,
                                        timeline=timeline, window=window),
    }


def render_top(snapshot: Dict[str, object], *,
               window: int = DEFAULT_WINDOW_BUCKETS,
               width: int = 100) -> str:
    """Render one ``dse top`` frame from an assembled snapshot.

    ``snapshot`` is what :func:`top_snapshot` assembles: ``store``
    (label), ``progress`` (a view tick's points/shards/eta, may be partial;
    a ``points_total`` of ``None`` shows as ``?``), ``workers``,
    ``timeline`` and ``stragglers``.  Pure text in, pure text out: a fixed
    snapshot renders byte-identically, which is what the determinism tests
    pin.
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
    if done is not None and "points_total" in progress:
        total = progress["points_total"]
        header += f" -- {done}/{'?' if total is None else total} points"
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
    return "\n".join(lines)
