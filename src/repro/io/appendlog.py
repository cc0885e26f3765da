"""The append-only JSONL log behind store rows and worker event streams.

Each per-owner JSONL file under a store directory has one writer, which only
appends, and any number of readers following it from any process.

* :class:`LogWriter` appends and flushes one ``sort_keys`` JSON line per
  record: the data survives process death, not a machine crash (no fsync).
  A writer killed mid-line leaves a torn tail, healed by the next writer's
  first open: a complete JSON object gets its newline, a fragment goes.
* :class:`LogReader` reads what was appended since its last poll.  Offsets
  advance only past newline-terminated lines; an unchanged file costs one
  stat.  An unterminated tail is never consumed: a complete record there
  is handed over once (a torn write can only drop the newline of a
  complete line), a fragment is one tentative skip until its line
  completes.  An unparseable line is skipped, counted, and warns
  :class:`StoreCorruptionWarning` once a later line proves it sat mid-file
  rather than being a live writer's tail; a parsed record the consumer
  refuses warns at once, as only an unparseable line can be torn.  A file
  that vanished, shrank below its offset or was replaced from outside by
  rename (a new inode) makes the poll rescan the directory.
* :func:`atomic_write_text` replaces a whole small file via ``os.replace``.
"""

from __future__ import annotations

import json
import os
import socket
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Union

__all__ = ["LogReader", "LogWriter", "StoreCorruptionWarning",
           "atomic_write_text"]


class StoreCorruptionWarning(UserWarning):
    """A log file contained lines that could not be loaded and were skipped."""


def _decode(line: bytes) -> Union[Dict[str, object], str]:
    """The JSON object on one line, or why there is none (bad bytes too)."""

    try:
        record = json.loads(line.decode(errors="replace"))
    except json.JSONDecodeError:
        return "unparseable JSON (torn or corrupt line)"
    return record if isinstance(record, dict) else "not a JSON object"


class LogWriter:
    """The one writer of an append-only JSONL file.

    Opens the file on the first :meth:`append` and keeps it open until
    :meth:`close` (also a context manager).  Values JSON cannot encode are
    written as ``str()``.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = None

    def append(self, record: Dict[str, object]) -> int:
        """Append and flush one record; returns the file's new end offset."""

        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._heal()
            self._handle = open(self.path, "ab")
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        self._handle.write(line.encode())
        self._handle.flush()
        return self._handle.tell()

    def _heal(self) -> None:
        # Appending after a torn tail would glue the next record onto it.
        # A complete record there was already read, so it keeps its line.
        try:
            handle = open(self.path, "rb+")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(max(0, handle.seek(0, os.SEEK_END) - 1))
            if handle.read(1) in (b"", b"\n"):
                return  # empty or clean: the common case reads one byte
            handle.seek(0)
            content = handle.read()
            cut = content.rfind(b"\n") + 1
            if isinstance(_decode(content[cut:]), dict):
                handle.write(b"\n")
            else:
                handle.truncate(cut)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Cursor:
    """A reader's position in one file."""

    def __init__(self, inode: int) -> None:
        self.inode = inode
        self.offset = 0          # bytes consumed, always just past a newline
        self.lineno = 0          # lines consumed (for warning positions)
        self.tail = b""          # the unterminated bytes after ``offset``
        self.tail_taken = False  # ... a complete record, already handed over
        self.skipped = 0         # newline-terminated lines that failed
        self.pending = None      # (lineno, reason) of a skip not yet proven

    @property
    def skips(self) -> int:
        """Failed lines, plus one tentative skip for a tail not taken."""

        return self.skipped + bool(self.tail.strip() and not self.tail_taken)


class LogReader:
    """Incremental reader of the append-only JSONL files in one directory.

    :meth:`poll` calls ``accept(name, lineno, record)`` with every new JSON
    object of the ``*.jsonl`` files, in sorted name order; it returns
    ``None`` to take the record or the reason it refuses it.
    ``reset()`` runs before a rescan,
    so the consumer can drop what it built.  ``counter`` names a metrics
    counter that mirrors skipped newline-terminated lines.
    """

    def __init__(self, directory, accept: Callable[[str, int, Dict], Optional[str]],
                 *, reset: Optional[Callable[[], None]] = None,
                 counter: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self._accept = accept
        self._reset = reset
        self._counter = counter
        self._files: Dict[str, _Cursor] = {}
        #: Directory scans (the first poll included), files parsed, files
        #: skipped after a stat, and bytes parsed.
        self.scan_stats = {"full_scans": 0, "files_scanned": 0,
                           "files_unchanged": 0, "bytes_read": 0}

    def poll(self) -> None:
        """Read every line completed since the previous poll."""

        stats = {}
        for path in sorted(self.directory.glob("*.jsonl")):
            try:
                stats[path.name] = path.stat()
            except FileNotFoundError:
                continue  # deleted between the listing and the stat
        rewritten = any(name not in stats
                        or stats[name].st_ino != cursor.inode
                        or stats[name].st_size < cursor.offset
                        for name, cursor in self._files.items())
        if rewritten or not self.scan_stats["full_scans"]:
            self.scan_stats["full_scans"] += 1
            self._files.clear()
            if self._reset is not None:
                self._reset()
        for name, stat in stats.items():
            self._scan(name, stat)

    def advance(self, name: str, end: int) -> None:
        """Step past one line the caller itself appended, ending at ``end``."""

        cursor = self._files.get(name)
        if cursor is None:
            cursor = self._files[name] = _Cursor(
                os.stat(self.directory / name).st_ino)
        cursor.offset = end
        cursor.lineno += 1
        cursor.tail, cursor.tail_taken = b"", False

    def _scan(self, name: str, stat: os.stat_result) -> None:
        cursor = self._files.get(name)
        if cursor is None:
            cursor = self._files[name] = _Cursor(stat.st_ino)
        elif stat.st_size == cursor.offset + len(cursor.tail):
            self.scan_stats["files_unchanged"] += 1
            return
        try:
            with open(self.directory / name, "rb") as handle:
                handle.seek(cursor.offset)
                data = handle.read()
        except FileNotFoundError:
            return  # gone since the listing: the next poll rescans
        self.scan_stats["files_scanned"] += 1
        self.scan_stats["bytes_read"] += len(data)
        cut = data.rfind(b"\n") + 1
        lines = data[:cut].split(b"\n")[:-1]
        if lines and cursor.tail_taken and lines[0].strip() == cursor.tail.strip():
            lines[0] = b""  # the newline of a record already handed over
        pending = cursor.pending
        for line in lines:
            cursor.lineno += 1
            if not line.strip():
                continue
            if pending is not None:
                self._warn(name, *pending)
                pending = None
            record = _decode(line)
            torn = isinstance(record, str)
            reason = record if torn else self._accept(name, cursor.lineno, record)
            if reason is None:
                continue
            cursor.skipped += 1
            if self._counter is not None:
                from repro.obs.metrics import registry

                registry().counter(self._counter).inc()
            if torn:
                pending = (cursor.lineno, reason)
            else:
                self._warn(name, cursor.lineno, reason)
        cursor.offset += cut
        cursor.tail, cursor.tail_taken = data[cut:], False
        if cursor.tail.strip():
            if pending is not None:  # a later line: the skip was mid-file
                self._warn(name, *pending)
                pending = None
            record = _decode(cursor.tail)
            cursor.tail_taken = not isinstance(record, str) and \
                self._accept(name, cursor.lineno + 1, record) is None
        cursor.pending = pending

    def _warn(self, name: str, lineno: int, reason: str) -> None:
        warnings.warn(f"skipping {self.directory / name}:{lineno}: {reason}",
                      StoreCorruptionWarning, stacklevel=5)

    def skip_counts(self) -> Dict[str, int]:
        """Skipped lines per file, a current unloadable tail included."""

        return {name: cursor.skips for name, cursor in self._files.items()
                if cursor.skips}


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and ``os.replace``.

    Readers, and a crash mid-write, see the old content or the new, never
    half of it.  The temp file is named by host and pid: two hosts sharing
    a directory over NFS can collide on pid alone.
    """

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(
        f".{path.name}.{socket.gethostname()}-pid{os.getpid()}.tmp")
    try:
        scratch.write_text(text, encoding="utf-8")
        os.replace(scratch, path)
    finally:
        if scratch.exists():  # replace failed; don't litter
            scratch.unlink()
    return path
