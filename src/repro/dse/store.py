"""Persistent, append-only storage of evaluated design points.

An :class:`ExperimentStore` is a directory of JSONL files, one JSON object
per evaluated point, keyed by the point's stable fingerprint
(:func:`repro.io.fingerprint.design_point_fingerprint`).  The format is
designed around three operational needs of long sweeps:

* **Resume after kill.**  Rows are appended and flushed one at a time; a
  process killed mid-write leaves at most one truncated trailing line, which
  the loader skips.  Re-running the same space recomputes only the missing
  points.
* **Dedup.**  The first row wins for any fingerprint; re-adding an evaluated
  point is a no-op, so overlapping spaces (Figure 6 and the L6 half of
  Figure 7, shards with redundant boundaries, ...) never duplicate work or
  data.
* **Shard merge.**  Every writer appends to its own file
  (``results.jsonl``, ``shard-1of4.jsonl``, ...); opening the directory
  merges all ``*.jsonl`` files, so combining shard outputs is ``cp``.

Rows are plain JSON; floats survive the round-trip bit-exactly (Python's
``json`` renders floats with ``repr`` and parses them back to the same
double), which is what keeps store-routed figure sweeps golden-identical to
direct runs.

Since schema v2, rows also record the per-point ``wall_s`` evaluation time
(driving ``dse status --eta`` and the dispatcher's progress watch); since
schema v3 they may also record **provenance** -- which strategy proposed the
point, under which seed, at which multi-fidelity rung.  Both describe *how*
a row was produced rather than *what* the design point is, so both are
stripped from :meth:`ExperimentStore.export_rows`, the canonical export used
to check that sharded/dispatched/adaptive runs match serial ones
byte-for-byte across schema generations.

Files go through the shared append log (:mod:`repro.io.appendlog`), so
:meth:`ExperimentStore.reload` reads just what was appended since the last
read -- O(new rows), which keeps the dispatcher's progress ticks and the
adaptive proposer's ingest loop cheap at paper scale.  The store adds its
own rules: the schema gate, fingerprint and required keys, first-wins dedup.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.dse.space import DesignPoint, point_from_spec
from repro.io.appendlog import LogReader, LogWriter, StoreCorruptionWarning
from repro.io.serialization import SCHEMA_VERSION, check_schema_version

#: Default writer file name (shard writers use ``shard-<i>of<N>.jsonl``).
DEFAULT_WRITER = "results"

#: Row keys that describe *one particular run or writer* rather than the
#: design point itself: wall timings differ run to run, the stamped schema
#: generation differs when an old store is resumed under a newer build, and
#: the provenance stamp (strategy/seed/rung, schema v3) records who asked
#: for the point, not what it is.  They are excluded from canonical exports
#: so that two stores of the same evaluated space -- serial, sharded,
#: dispatched, resumed, mixed-version, grid or adaptive -- export
#: byte-identically (the export payload carries its own top-level
#: ``schema_version``).
VOLATILE_ROW_KEYS = frozenset({"wall_s", "schema_version", "provenance"})

#: Keys a row must carry to be replayable.  A partially copied shard file can
#: tear a line into valid-but-incomplete JSON; such rows are skipped with a
#: warning instead of blowing up later in :func:`row_to_record`.
REQUIRED_ROW_KEYS = frozenset(
    {"fingerprint", "point", "application", "metrics", "program_ops", "shuttles"})


class CachedResult:
    """Attribute view over stored result metrics.

    Exposes the subset of :class:`~repro.sim.results.SimulationResult` that
    reports, figures and strategies read, backed by the flat metrics
    dictionary of a store row.  Values are the exact floats of the original
    simulation (JSON round-trips doubles losslessly).
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: Dict[str, float]) -> None:
        self._metrics = metrics

    @property
    def duration(self) -> float:
        return self._metrics["duration_us"]

    @property
    def duration_seconds(self) -> float:
        return self._metrics["duration_s"]

    @property
    def fidelity(self) -> float:
        return self._metrics["fidelity"]

    @property
    def log_fidelity(self) -> float:
        return self._metrics["log_fidelity"]

    @property
    def computation_seconds(self) -> float:
        return self._metrics["computation_s"]

    @property
    def communication_seconds(self) -> float:
        return self._metrics["communication_s"]

    @property
    def max_motional_energy(self) -> float:
        return self._metrics["max_motional_energy"]

    @property
    def mean_background_error(self) -> float:
        return self._metrics["mean_background_error"]

    @property
    def mean_motional_error(self) -> float:
        return self._metrics["mean_motional_error"]

    @property
    def num_shuttles(self) -> int:
        return int(self._metrics["num_shuttles"])

    @property
    def num_ms_gates(self) -> int:
        return int(self._metrics["num_ms_gates"])

    def as_dict(self) -> Dict[str, float]:
        """The stored metrics (same keys as ``SimulationResult.as_dict``)."""

        return dict(self._metrics)


class CachedRecord:
    """Record view over one store row, interchangeable with ExperimentRecord.

    Exposes ``application``, ``config``, ``result``, ``program_size``,
    ``num_shuttles`` and ``as_row()`` exactly like
    :class:`~repro.toolflow.runner.ExperimentRecord`, so sweep and figure
    drivers do not care whether a point was computed in this process or
    replayed from disk.
    """

    __slots__ = ("point", "application", "result", "program_size",
                 "num_shuttles", "wall_s", "provenance")

    def __init__(self, point: DesignPoint, application: str,
                 metrics: Dict[str, float],
                 program_size: int, num_shuttles: int,
                 wall_s: Optional[float] = None,
                 provenance: Optional[Dict[str, object]] = None) -> None:
        self.point = point
        # The circuit's own name (e.g. "qft64"), which can differ from the
        # suite key the point addresses it by (e.g. "QFT").
        self.application = application
        self.result = CachedResult(metrics)
        self.program_size = program_size
        self.num_shuttles = num_shuttles
        # Wall-clock seconds the original evaluation took; ``None`` for rows
        # written before schema v2 (unknown, deliberately not zero -- ETA
        # math must ignore them, not average them in).
        self.wall_s = wall_s
        # Who asked for the point: strategy name, seed and multi-fidelity
        # rung (schema v3); ``None`` for older rows or direct evaluations.
        self.provenance = provenance

    @property
    def config(self):
        return self.point.config

    @property
    def fidelity(self) -> float:
        return self.result.fidelity

    @property
    def duration_seconds(self) -> float:
        return self.result.duration_seconds

    def as_row(self) -> Dict[str, object]:
        row = {
            "application": self.application,
            "topology": self.config.topology,
            "capacity": self.config.trap_capacity,
            "gate": self.config.gate,
            "reorder": self.config.reorder,
            "buffer": self.config.buffer_ions,
            "program_ops": self.program_size,
            "shuttles": self.num_shuttles,
        }
        row.update(self.result.as_dict())
        return row


def row_to_record(row: Dict[str, object]) -> CachedRecord:
    """Rebuild a record view from one stored row."""

    return CachedRecord(
        point=point_from_spec(row["point"]),
        application=row["application"],
        metrics=row["metrics"],
        program_size=row["program_ops"],
        num_shuttles=row["shuttles"],
        wall_s=row.get("wall_s"),
        provenance=row.get("provenance"),
    )


def record_to_row(fingerprint: str, point: DesignPoint, record, *,
                  provenance: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Serialise one evaluated point (live or cached record) to a store row.

    The ``wall_s`` timing is recorded only when the record carries one;
    replays of pre-v2 rows stay timing-free rather than gaining a fake zero.
    Likewise the provenance stamp (strategy/seed/rung, schema v3): it comes
    from the caller (the runner's active strategy context) or, for replays,
    from the record itself; rows never gain an invented provenance.
    """

    row = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "point": point.spec(),
        "application": record.application,
        "program_ops": record.program_size,
        "shuttles": record.num_shuttles,
        "metrics": record.result.as_dict(),
    }
    wall_s = getattr(record, "wall_s", None)
    if wall_s is not None:
        row["wall_s"] = wall_s
    if provenance is None:
        provenance = getattr(record, "provenance", None)
    if provenance:
        row["provenance"] = {key: provenance[key] for key in sorted(provenance)}
    return row


class ExperimentStore:
    """Append-only on-disk store of evaluated design points.

    ``directory=None`` gives a purely in-memory store with the same API --
    the sweep drivers always route through a store, persistent or not.
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 writer: str = DEFAULT_WRITER) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.writer = writer
        self._rows: Dict[str, Dict] = {}
        self._sources: Dict[str, str] = {}
        self._log: Optional[LogWriter] = None
        self._reader: Optional[LogReader] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._reader = LogReader(self.directory, self._ingest,
                                     reset=self._forget,
                                     counter="store.lines_skipped")
            self._reader.poll()

    # ------------------------------------------------------------------ #
    def _ingest(self, name: str, lineno: int, row: Dict) -> Optional[str]:
        """Index one stored row; returns a skip reason for unusable rows."""

        version = row.get("schema_version", 0)
        if not isinstance(version, int) or version < 0:
            # A garbled version field is line corruption: skip the line,
            # don't abort the directory.  Genuinely *newer* payloads still
            # fail loudly below -- silently misreading them would be worse.
            return f"malformed schema_version {version!r}"
        check_schema_version(row, source=f"{self.directory}{os.sep}{name}:{lineno}")
        fingerprint = row.get("fingerprint")
        if not fingerprint:
            return "row has no fingerprint"
        if fingerprint in self._rows:
            return None  # dedup, not corruption
        missing = REQUIRED_ROW_KEYS - row.keys()
        if missing:
            return f"row is missing {sorted(missing)} (torn mid-copy?)"
        self._rows[fingerprint] = row
        self._sources[fingerprint] = name
        return None

    def _forget(self) -> None:
        """Drop the index before the reader rescans the directory."""

        self._rows.clear()
        self._sources.clear()
        self.close()

    def reload(self) -> None:
        """Pick up rows appended by other writers, in O(new rows).

        A file that was deleted, truncated or replaced (history rewritten)
        makes the reload rescan the whole directory instead.
        """

        if self._reader is not None:
            self._reader.poll()

    # ------------------------------------------------------------------ #
    @property
    def scan_stats(self) -> Dict[str, int]:
        """Reload-path counters (:attr:`LogReader.scan_stats`)."""

        return self._reader.scan_stats if self._reader is not None else {}

    def skip_counts(self) -> Dict[str, int]:
        """Skipped-line totals per store file, a torn or in-flight tail
        included (counted once, and uncounted if the line completes).

        What ``dse status`` prints: every corrupt file is named with its
        skip count, instead of the information living only in
        :class:`StoreCorruptionWarning` messages as they scroll past.
        """

        return self._reader.skip_counts() if self._reader is not None else {}

    @property
    def skipped_lines(self) -> int:
        """Lines that could not be loaded (see :meth:`skip_counts`)."""

        return sum(self.skip_counts().values())

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._rows

    def get(self, fingerprint: str) -> Optional[Dict]:
        """The stored row for a fingerprint, or ``None``."""

        return self._rows.get(fingerprint)

    def rows(self) -> Iterator[Dict]:
        """All rows in load/insertion order."""

        return iter(self._rows.values())

    def sorted_rows(self) -> List[Dict]:
        """All rows in fingerprint order (canonical for exports and diffs)."""

        return [self._rows[fp] for fp in sorted(self._rows)]

    def export_rows(self) -> List[Dict]:
        """Canonical rows for ``dse export``: deterministic bytes per study.

        Fingerprint-sorted, recursively key-sorted, with per-run/per-writer
        fields (:data:`VOLATILE_ROW_KEYS`: wall timings, row schema stamps)
        dropped.  Two stores holding the same evaluated space therefore export
        byte-identically regardless of how they were produced -- one process,
        ``--jobs N``, hand-launched shards, or a dispatched run with killed
        and reclaimed workers -- which is what makes exports diffable in CI.
        """

        def canonical(value):
            if isinstance(value, dict):
                return {key: canonical(value[key]) for key in sorted(value)
                        if key not in VOLATILE_ROW_KEYS}
            if isinstance(value, list):
                return [canonical(item) for item in value]
            return value

        return [canonical(row) for row in self.sorted_rows()]

    def wall_timings(self) -> List[float]:
        """Per-point ``wall_s`` of every row that recorded one.

        Rows written before schema v2 carry no timing and are simply absent
        here (unknown is not zero), so ETA estimates stay unbiased on stores
        that mix old and new rows.
        """

        return [row["wall_s"] for row in self._rows.values()
                if isinstance(row.get("wall_s"), (int, float))]

    def fingerprints(self) -> List[str]:
        return list(self._rows)

    def source_counts(self) -> Dict[str, int]:
        """Rows per originating file (``"memory"`` for unpersisted rows)."""

        counts: Dict[str, int] = {}
        for source in self._sources.values():
            counts[source] = counts.get(source, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    @property
    def writer_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{self.writer}.jsonl"

    def add(self, row: Dict) -> bool:
        """Append one row; returns ``False`` (no-op) if its point is present.

        Persistent stores write and flush the line immediately, so a kill
        between two points loses at most the in-flight row.
        """

        fingerprint = row["fingerprint"]
        if fingerprint in self._rows:
            return False
        self._rows[fingerprint] = row
        if self._reader is None:
            self._sources[fingerprint] = "memory"
            return True
        if self._log is None:
            self._log = LogWriter(self.writer_path)
        end = self._log.append(row)
        name = self.writer_path.name
        self._sources[fingerprint] = name
        # Our own appends are already indexed: move the reader past them so
        # reload() parses only *other* writers' rows.
        self._reader.advance(name, end)
        return True

    def set_writer(self, writer: str) -> None:
        """Redirect future appends to ``<writer>.jsonl`` (rows stay loaded).

        The writer file choice is independent of the rows already indexed,
        so a sharded runner can retarget an open store without re-reading
        the directory.
        """

        if writer != self.writer:
            self.close()
            self.writer = writer

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def merge_from(self, other: "ExperimentStore") -> int:
        """Copy every row of ``other`` not already present; returns the count.

        Used to fold shard outputs produced elsewhere into a master store
        (for same-filesystem shards, dropping the shard files into the store
        directory achieves the same thing with no copy).
        """

        added = 0
        for row in other.rows():
            if self.add(row):
                added += 1
        return added

    def records(self) -> List[CachedRecord]:
        """Every stored point as a record view, in insertion order."""

        return [row_to_record(row) for row in self.rows()]
