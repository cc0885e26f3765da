"""The proposer of a distributed adaptive search.

Static shards fix every point before any result exists, while an adaptive
search must *see* results to choose its next points.  An adaptive dispatch
therefore adds one process to the fleet, the **proposer** (``repro dse
propose``, or the dispatcher itself under ``repro dse dispatch --strategy
bayes``).  It writes each logical batch into the store's work ledger
(:class:`~repro.dse.dispatch.WorkLedger`) as ``parts`` signed, leaseable
items, so the whole worker fleet shares the batch.  It then watches the
experiment store (incremental
:meth:`~repro.dse.store.ExperimentStore.reload`, O(new rows) per tick)
until every point of the outstanding batch has a row, ingests the objective
values, and emits the next batch.  The ledger's complete marker ends the
run and records the best point (or the Pareto frontier).

Workers need nothing adaptive-specific: :func:`repro.dse.dispatch.run_worker`
leases proposal parts exactly like grid shards -- atomic claim, heartbeat
renewal after every persisted task group, expiry-based takeover of a
SIGKILLed worker's part, done markers -- and appends results to the store
as always.

Crash recovery needs the ledger alone: a killed worker's part expires and
is re-leased; a killed proposer restarts, replays its own proposal parts in
order (regenerating each batch deterministically and verifying it against
the stored items), re-ingests their results from the store and continues
where it stopped.  Because proposals are a pure function of (space,
strategy, seed, ingested values) and evaluation is deterministic, a
dispatched adaptive run -- even with kills on either side -- exports
byte-identically to a single-process run of the same strategy.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.dse.adaptive.propose import ProposalBatch, make_proposer
from repro.dse.dispatch import (
    DEFAULT_TTL_S,
    WorkLedger,
    WorkTampered,
    read_manifest,
)
from repro.dse.runner import DSERunner
from repro.dse.space import DesignSpace, point_from_spec
from repro.dse.store import ExperimentStore, row_to_record
from repro.obs.trace import span as _span


def part_name(number: int, part: int) -> str:
    """Ledger item name of part ``part`` of logical batch ``number``."""

    return f"batch-{number:06d}-part{part:02d}"


def _slices(batch: ProposalBatch, parts: int) -> List[Tuple[int, slice]]:
    """The contiguous per-part slices of one logical batch.

    Contiguity keeps enumeration-adjacent points together, which is what
    lets a worker fold gate variants into one compilation.
    """

    count = len(batch.keys)
    parts = max(1, min(int(parts), count))
    base, extra = divmod(count, parts)
    slices = []
    start = 0
    for part in range(1, parts + 1):
        stop = start + base + (1 if part <= extra else 0)
        slices.append((part, slice(start, stop)))
        start = stop
    return slices


def _part_payload(batch: ProposalBatch, meta: Dict[str, object], parts: int,
                  part: int, span: slice) -> Dict[str, object]:
    payload = {
        "batch": batch.number,
        "part": part,
        "parts": parts,
        "keys": list(batch.keys[span]),
        "points": [point.spec() for point in batch.points[span]],
        "rung": batch.rung,
        "proxy_qubits": batch.proxy_qubits,
    }
    payload.update(meta)
    return payload


def write_batch(ledger: WorkLedger, batch: ProposalBatch,
                meta: Dict[str, object], *, parts: int = 1) -> List[Path]:
    """Persist one logical batch as up to ``parts`` leaseable items."""

    return [ledger.write_item(part_name(batch.number, part),
                              _part_payload(batch, meta, parts, part, span))
            for part, span in _slices(batch, parts)]


def verify_or_repair_batch(ledger: WorkLedger, batch: ProposalBatch,
                           meta: Dict[str, object], *, parts: int = 1) -> None:
    """Reconcile stored parts of a batch with the regenerated one.

    The proposer-restart path: a proposer killed between the per-part
    renames of :func:`write_batch` leaves a logical batch with some parts
    missing.  Parts that exist must match the regenerated slice in content
    (keys and points) -- anything else means the ledger belongs to a
    different (space, strategy, seed) and is a hard error.  Missing or torn
    parts are simply (re)written, which is idempotent: the regenerated
    content is identical to what the dead proposer would have written.
    """

    for part, span in _slices(batch, parts):
        expected = _part_payload(batch, meta, parts, part, span)
        name = part_name(batch.number, part)
        if ledger.item_path(name).exists():
            try:
                stored = ledger.read_item(name)
            except WorkTampered:
                stored = None  # torn copy: rewrite below
            if stored is not None:
                if (stored["keys"] != expected["keys"]
                        or stored["points"] != expected["points"]):
                    raise ValueError(
                        f"work ledger in {ledger.directory} does not "
                        f"match this (space, strategy, seed): batch "
                        f"{batch.number} part {part} differs; was the "
                        f"store produced by a different run?")
                continue
        ledger.write_item(name, expected)


def batch_from_payload(payload: Dict[str, object]) -> ProposalBatch:
    """Rebuild a (part-sized) :class:`ProposalBatch` from a part item."""

    return ProposalBatch(
        number=payload["batch"],
        keys=tuple(payload["keys"]),
        points=tuple(point_from_spec(spec) for spec in payload["points"]),
        rung=payload.get("rung"),
        proxy_qubits=payload.get("proxy_qubits"),
    )


def read_logical_batch(ledger: WorkLedger, number: int) -> Dict[str, object]:
    """The merged payload of every part of one logical batch."""

    prefix = f"batch-{number:06d}-"
    names = [name for name in ledger.work_names() if name.startswith(prefix)]
    if not names:
        raise ValueError(f"no proposal batch {number} in {ledger.directory}")
    merged: Dict[str, object] = {"batch": number, "keys": [], "points": []}
    for name in names:
        payload = ledger.read_item(name)
        merged["keys"].extend(payload["keys"])
        merged["points"].extend(payload["points"])
        merged["rung"] = payload.get("rung")
        merged["proxy_qubits"] = payload.get("proxy_qubits")
    return merged


def run_proposer(store_dir, *, poll_s: float = 0.2,
                 tick: Optional[Callable[[], None]] = None) -> Dict[str, object]:
    """Drive an adaptive run's proposal loop to completion.

    Requires an adaptive-mode dispatch manifest in ``store_dir`` (written
    by ``repro dse dispatch --strategy bayes ...`` or
    :meth:`~repro.dse.dispatch.Dispatcher.prepare`).  Existing proposal
    parts are replayed first -- each logical batch is regenerated from the
    deterministic proposer and verified against the stored parts, so a
    restarted proposer continues exactly where its predecessor was killed.
    ``tick`` (if given) is invoked on every wait poll; raising from it
    aborts the loop (the dispatcher uses this for timeouts and worker
    respawn).

    Returns the complete-marker payload (``batches``, ``evaluations``,
    ``best``, and for multi-objective runs ``objectives`` and ``frontier``)
    plus ``proposals``, the proposer's per-batch trace entries.
    """

    store_dir = Path(store_dir)
    manifest = read_manifest(store_dir)
    if manifest["mode"] != "adaptive":
        raise ValueError(
            f"store {store_dir} is not an adaptive dispatch (manifest mode "
            f"is {manifest['mode']!r}); prepare it with "
            f"`repro dse dispatch --strategy bayes ...` first")
    space = DesignSpace.from_dict(manifest["space"])
    strategy_spec = dict(manifest["strategy"])
    parts = int(strategy_spec.pop("parts", 1))
    proposer = make_proposer(space, strategy_spec)
    ledger = WorkLedger.for_store(store_dir,
                                  ttl_s=manifest.get("ttl_s", DEFAULT_TTL_S))
    store = ExperimentStore(store_dir)
    # Fingerprint-only runner: builds and memoises circuits to key the
    # store, but never evaluates anything (the workers do).
    index = DSERunner(space, store=store)
    existing = {int(name.split("-")[1]) for name in ledger.work_names()}
    # Every proposal part carries the proposer's provenance stamp, which
    # workers put on the rows exactly like the in-process strategy does, so
    # serial and dispatched runs of one study persist identical raw rows.
    meta = dict(proposer.stamp(), metric=proposer.metric)

    trace: List[Dict[str, object]] = []
    while True:
        with _span("dse.propose.batch") as batch_span:
            batch = proposer.next_batch()
            if batch is None:
                break
            batch_span.set(batch=batch.number, points=len(batch.keys))
            if batch.number in existing:
                # Replay: verify the stored parts against the regenerated
                # batch and rewrite any the dead proposer did not get to (a
                # kill can land between the per-part renames of write_batch).
                verify_or_repair_batch(ledger, batch, meta, parts=parts)
            else:
                write_batch(ledger, batch, meta, parts=parts)
        with _span("dse.propose.await", batch=batch.number,
                   points=len(batch.keys)):
            records = _await_batch(store, index, batch, poll_s=poll_s,
                                   tick=tick)
        proposer.ingest(batch, proposer.values(records))
        trace.append(proposer.trace_entry(batch))

    complete = dict(batches=len(trace), **proposer.outcome())
    ledger.write_complete(complete)
    return dict(complete, proposals=trace)


def _await_batch(store: ExperimentStore, index: DSERunner,
                 batch: ProposalBatch, *, poll_s: float,
                 tick: Optional[Callable[[], None]]) -> List[object]:
    """Block until every point of ``batch`` has a store row; return the
    records, in batch order (what the in-process strategy hands the
    proposer's ``values``, so the proposal sequence is identical either
    way)."""

    fingerprints = [index.fingerprint(point) for point in batch.points]
    while any(fp not in store for fp in fingerprints):
        if tick is not None:
            tick()
        time.sleep(poll_s)
        store.reload()  # incremental: O(rows appended since last poll)
    return [row_to_record(store.get(fp)) for fp in fingerprints]
