"""Process-wide metrics: counters, gauges and histograms with delta-merge.

Any component registers named series (:mod:`repro.sim.batch`'s ``stats=``
dict drives them through :class:`CounterDict`).  The one counter protocol
across processes: a ``--jobs`` pool worker snapshots its
``ProgramCache.metrics`` before a task and ships the
:meth:`MetricsRegistry.delta` home with the result, and the parent
:meth:`MetricsRegistry.merge`\\ s it -- so aggregate counts are identical
for any ``--jobs`` value (deltas are merged in task-submission order, and
counters are integers, so there is no float-association drift).  A
dispatched worker's ``done`` events carry the same delta's counters.

Naming convention (see ``docs/observability.md``): dotted lowercase paths,
``<component>.<series>`` -- ``cache.hits``, ``cache.batch.variants``,
``store.lines_skipped``, ``dse.points.evaluated``,
``dse.propose.latency_s``.  Unit suffixes (``_s``, ``_bytes``) follow the
series name.

Metrics are always on (an increment is one attribute add); only *tracing*
has an enabled flag.  The process-wide default registry lives behind
:func:`registry`; components that need isolated counting (one
``ProgramCache`` per sweep) construct private registries.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, MutableMapping, Optional

__all__ = [
    "Counter",
    "CounterDict",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "reset_registry",
]

#: Log-spaced quantile buckets per decade.  Bucket ``i`` covers values in
#: ``[10**(i/8), 10**((i+1)/8))`` -- a x1.33 width, so quantile estimates
#: carry at most ~15% relative error either side of the bucket midpoint.
BUCKETS_PER_DECADE = 8

#: Bucket index clamp: values outside [1e-9, 1e9) land in the edge buckets,
#: bounding the bucket map at ``2 * 9 * BUCKETS_PER_DECADE + 2`` entries no
#: matter what is observed.
_BUCKET_MIN = -9 * BUCKETS_PER_DECADE
_BUCKET_MAX = 9 * BUCKETS_PER_DECADE

#: Non-positive observations (a zero-duration span) get their own bucket
#: below every log bucket; its representative value is 0.0.
_BUCKET_ZERO = _BUCKET_MIN - 1


class Counter:
    """A monotonically increasing integer series."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins series (queue depths, heartbeat ages)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


def bucket_index(value: float) -> int:
    """The bounded log-spaced bucket an observation falls into."""

    if value <= 0.0:
        return _BUCKET_ZERO
    index = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
    return max(_BUCKET_MIN, min(_BUCKET_MAX, index))


def bucket_value(index: int) -> float:
    """The representative (geometric-midpoint) value of one bucket."""

    if index <= _BUCKET_ZERO:
        return 0.0
    return 10.0 ** ((index + 0.5) / BUCKETS_PER_DECADE)


class Histogram:
    """A streaming summary of observed values with bounded-bucket quantiles.

    Beyond count / sum / min / max, every observation lands in one of a
    *bounded* set of log-spaced buckets (:data:`BUCKETS_PER_DECADE` per
    decade, clamped to [1e-9, 1e9)), so :meth:`quantile` answers p50/p90/p99
    in O(buckets) with a fixed memory ceiling regardless of how many values
    stream through.  Bucket counts are integers, so the pool
    snapshot->delta->merge protocol keeps quantiles **jobs-count-invariant**:
    merging worker deltas in any split reproduces the serial bucket counts
    exactly, and quantiles are a pure function of those counts.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0..1) from the bucket counts, or ``None`` if empty.

        Deterministic: walk the buckets in index order until the cumulative
        count reaches ``ceil(q * count)``, then report that bucket's
        geometric midpoint clamped into [min, max] (so a single observation
        reports itself exactly).
        """

        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        value = self.max
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                value = bucket_value(index)
                break
        if self.min is not None:
            value = max(self.min, min(self.max, value))
        return value

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The standard reporting triple: p50 / p90 / p99."""

        return {"p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot/delta/merge support.

    The pool-worker protocol: the worker takes ``before = reg.snapshot()``,
    does the work, and returns ``reg.delta(before)``; the parent calls
    ``reg.merge(delta)``.  Counter and histogram count/sum movements add;
    histogram min/max fold with min/max (idempotent, so re-reporting an
    old extreme is harmless); gauges carry their latest value.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        series = self._counters.get(name)
        if series is None:
            series = self._counters[name] = Counter(name)
        return series

    def gauge(self, name: str) -> Gauge:
        series = self._gauges.get(name)
        if series is None:
            series = self._gauges[name] = Gauge(name)
        return series

    def histogram(self, name: str) -> Histogram:
        series = self._histograms.get(name)
        if series is None:
            series = self._histograms[name] = Histogram(name)
        return series

    def dict_view(self, prefix: str) -> "CounterDict":
        """A dict facade over ``<prefix><key>`` counters (legacy hooks)."""

        return CounterDict(self, prefix)

    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """Flat name -> value view of every counter."""

        return {name: series.value
                for name, series in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, object]:
        """Every series, grouped by kind (the delta/merge interchange form)."""

        return {
            "counters": self.counters(),
            "gauges": {name: series.value
                       for name, series in sorted(self._gauges.items())},
            "histograms": {
                name: {"count": series.count, "sum": series.total,
                       "min": series.min, "max": series.max,
                       "buckets": {str(index): series.buckets[index]
                                   for index in sorted(series.buckets)}}
                for name, series in sorted(self._histograms.items())},
        }

    def delta(self, before: Dict[str, object]) -> Dict[str, object]:
        """Series movement since a previous :meth:`snapshot`.

        Counters and histogram count/sum are differences; histogram min/max
        and gauges are current values (min/max fold idempotently on merge).
        """

        now = self.snapshot()
        before_counters = before.get("counters", {})
        before_histograms = before.get("histograms", {})
        counters = {}
        for name, value in now["counters"].items():
            moved = value - before_counters.get(name, 0)
            if moved:
                counters[name] = moved
        histograms = {}
        for name, summary in now["histograms"].items():
            prior = before_histograms.get(name, {"count": 0, "sum": 0.0})
            moved = summary["count"] - prior["count"]
            if moved:
                prior_buckets = prior.get("buckets", {})
                histograms[name] = {
                    "count": moved,
                    "sum": summary["sum"] - prior["sum"],
                    "min": summary["min"],
                    "max": summary["max"],
                    "buckets": {
                        index: delta for index, count
                        in summary.get("buckets", {}).items()
                        for delta in (count - prior_buckets.get(index, 0),)
                        if delta},
                }
        return {"counters": counters, "gauges": dict(now["gauges"]),
                "histograms": histograms}

    def merge(self, delta: Dict[str, object]) -> None:
        """Fold a :meth:`delta` (e.g. from a pool worker) into this registry."""

        for name, moved in delta.get("counters", {}).items():
            self.counter(name).inc(moved)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in delta.get("histograms", {}).items():
            series = self.histogram(name)
            series.count += summary["count"]
            series.total += summary["sum"]
            for index, count in summary.get("buckets", {}).items():
                index = int(index)
                series.buckets[index] = series.buckets.get(index, 0) + count
            for bound, pick in (("min", min), ("max", max)):
                value = summary.get(bound)
                if value is None:
                    continue
                current = getattr(series, bound)
                setattr(series, bound,
                        value if current is None else pick(current, value))


class CounterDict(MutableMapping):
    """A mutable-mapping facade over prefixed counters of a registry.

    Exists for the ``stats=`` dict parameter of
    :func:`repro.sim.batch.simulate_batch` and friends: code written
    against a plain ``Dict[str, int]`` (``stats["plans"] = stats.get(...)``)
    transparently drives registry counters named ``<prefix><key>`` instead.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def _names(self):
        prefix = self._prefix
        return [name for name in self._registry._counters
                if name.startswith(prefix)]

    def __getitem__(self, key: str) -> int:
        name = self._prefix + key
        series = self._registry._counters.get(name)
        if series is None:
            raise KeyError(key)
        return series.value

    def __setitem__(self, key: str, value: int) -> None:
        self._registry.counter(self._prefix + key).value = value

    def __delitem__(self, key: str) -> None:
        name = self._prefix + key
        if name not in self._registry._counters:
            raise KeyError(key)
        del self._registry._counters[name]

    def __iter__(self) -> Iterator[str]:
        start = len(self._prefix)
        return iter(sorted(name[start:] for name in self._names()))

    def __len__(self) -> int:
        return len(self._names())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CounterDict({dict(self)!r})"


#: The process-wide default registry.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (store skips, DSE counters, proposers)."""

    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one (test isolation)."""

    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY
