"""Span-based tracing with a zero-overhead disabled path.

The tracer answers one question about a run: *where did the wall time go?*
Call sites wrap units of work in ``with span("compile.route", gates=n):``;
when tracing is enabled the block becomes a :class:`Span` carrying
``perf_counter`` start/end times, process/thread ids and a parent link, and
when tracing is disabled (the default) ``span()`` returns one shared
do-nothing context manager -- no allocation, no clock read, no ContextVar
touch -- so instrumented hot paths cost a dict build and a global load.
A tier-1 bound (``tests/test_obs.py``) holds that cost below 1% of the
96-point ``scaled_suite(16)`` microarchitecture sweep.

Parenting uses a :class:`contextvars.ContextVar`, so nesting follows the
call stack (including across threads, each of which sees its own chain).
Tracing also crosses process boundaries: every tracer carries a root
``trace_id`` plus an optional ``parent_ref`` (``"pid:span_id"`` naming a
span in another process), and :mod:`repro.obs.distributed` propagates
both into dispatched worker subprocesses, whose spans flow back as
*foreign records* via :meth:`Tracer.adopt` -- so a fleet run yields one
trace under one root id.

Span ids are small per-tracer integers (allocation order), so traces of a
deterministic run are structurally reproducible; only the timings vary.
Cross-process spans are identified by the ``(pid, span_id)`` pair.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "current_span_name",
    "current_span_ref",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "span",
]

#: Parent span id of the current execution context (``None`` at top level).
_PARENT: ContextVar[Optional[int]] = ContextVar("repro_obs_parent",
                                                default=None)

#: The installed tracer; ``None`` means tracing is disabled.  Read on every
#: ``span()`` call, so the disabled fast path is one global load and an
#: ``is None`` test.
_TRACER: Optional["Tracer"] = None


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed unit of work; a context manager recording itself on exit.

    ``start_s``/``end_s`` are ``perf_counter`` readings; subtract the owning
    tracer's ``origin_s`` for run-relative time.  ``attrs`` holds the call
    site's keyword annotations plus anything added through :meth:`set`; an
    exception escaping the block is recorded as ``attrs["error"]``.
    """

    __slots__ = ("name", "span_id", "parent_id", "pid", "tid",
                 "start_s", "end_s", "attrs", "_tracer", "_token")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 attrs: Dict[str, object]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.pid = tracer.pid
        self.tid = threading.get_ident()
        self.start_s: float = 0.0
        self.end_s: float = 0.0
        self.attrs = attrs
        self._tracer = tracer
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach annotations mid-block (counts known only at the end)."""

        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.parent_id = _PARENT.get()
        self._token = _PARENT.set(self.span_id)
        self._tracer.open_spans[self.span_id] = self
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        _PARENT.reset(self._token)
        self._tracer.open_spans.pop(self.span_id, None)
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer.spans.append(self)
        return False

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self, origin_s: float = 0.0) -> Dict[str, object]:
        """The span as the flat-JSONL schema (times relative to origin)."""

        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "start_s": self.start_s - origin_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects finished spans for one run of the pipeline.

    ``epoch_s`` (wall clock) and ``origin_s`` (``perf_counter``) are read
    together at construction, anchoring the monotonic span times to real
    time for the export manifest.

    ``trace_id`` names the root trace this tracer contributes to: minted
    here for a root (dispatcher/CLI) tracer, inherited via
    :mod:`repro.obs.distributed` context propagation in worker processes,
    whose tracers also carry a ``parent_ref`` (``"pid:span_id"``) naming
    the cross-process span their root spans hang under.  ``foreign`` holds
    adopted span *records* (dicts in the ``Span.to_dict`` schema, times
    already in this tracer's frame) shipped back from other processes.
    """

    def __init__(self, *, trace_id: Optional[str] = None,
                 parent_ref: Optional[str] = None) -> None:
        self.epoch_s = time.time()
        self.origin_s = time.perf_counter()
        self.pid = os.getpid()
        self.trace_id = trace_id or f"{self.pid:x}-{int(self.epoch_s * 1e6):x}"
        self.parent_ref = parent_ref
        self.spans: List[Span] = []
        self.foreign: List[Dict[str, object]] = []
        self.open_spans: Dict[int, Span] = {}
        self._next_id = 0
        self._lock = threading.Lock()

    def span(self, name: str, **attrs) -> Span:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        return Span(self, name, span_id, attrs)

    def adopt(self, records) -> None:
        """Append foreign span records (already in this tracer's frame)."""

        self.foreign.extend(records)

    def records(self) -> List[Dict[str, object]]:
        """All span records -- own spans first, then adopted foreign ones.

        Own spans use the plain :meth:`Span.to_dict` schema (plus a
        ``parent_ref`` on roots when this tracer was armed under one), so
        a single-process trace exports exactly as before fleet support.
        """

        records = []
        for item in self.spans:
            record = item.to_dict(self.origin_s)
            if self.parent_ref and record["parent_id"] is None:
                record["parent_ref"] = self.parent_ref
            records.append(record)
        records.extend(self.foreign)
        return records

    def phase_timings(self) -> Dict[str, Dict[str, float]]:
        """Total duration and call count per span name (manifest summary)."""

        timings: Dict[str, Dict[str, float]] = {}
        for record in self.records():
            name = str(record["name"])
            entry = timings.setdefault(name, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += float(record.get("duration_s") or 0.0)
        return timings


def span(name: str, **attrs):
    """A context manager timing one unit of work (no-op when disabled)."""

    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def enable_tracing(*, trace_id: Optional[str] = None,
                   parent_ref: Optional[str] = None) -> Tracer:
    """Install (and return) a fresh process-wide tracer.

    ``trace_id``/``parent_ref`` join this process to an existing fleet
    trace (see :mod:`repro.obs.distributed`); omitted, a new root trace
    id is minted.

    The parent chain restarts with the tracer: a forked child process
    inherits the parent process's ``_PARENT`` ContextVar, and without the
    reset its spans would carry a ``parent_id`` naming a span of a
    *different* process's tracer.
    """

    global _TRACER
    _TRACER = Tracer(trace_id=trace_id, parent_ref=parent_ref)
    _PARENT.set(None)
    return _TRACER


def disable_tracing() -> Optional[Tracer]:
    """Uninstall the tracer, returning it (with its spans) if one was set."""

    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""

    return _TRACER


def current_span_ref() -> Optional[str]:
    """The open span of this context as a cross-process ``pid:span_id`` ref.

    ``None`` when tracing is disabled or no span is open.  This is what a
    dispatcher stamps into worker environments so worker root spans parent
    under the dispatching span in the merged fleet trace.
    """

    tracer = _TRACER
    if tracer is None:
        return None
    parent = _PARENT.get()
    if parent is None:
        return None
    return f"{tracer.pid}:{parent}"


def current_span_name() -> Optional[str]:
    """Name of the innermost *open* span, or ``None``.

    Workers stamp this onto their telemetry events as the live ``phase``
    the ``dse top`` dashboard shows per worker.
    """

    tracer = _TRACER
    if tracer is None:
        return None
    parent = _PARENT.get()
    if parent is None:
        return None
    open_span = tracer.open_spans.get(parent)
    return open_span.name if open_span is not None else None
