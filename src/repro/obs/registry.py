"""Metrics registry: counters, gauges, fixed-bucket histograms, spans, series.

One :class:`MetricsRegistry` holds every measurement of one run.  The design
contract, enforced across the engines by ``tests/test_differential.py``, is
that instrumentation is **purely additive**: recording never feeds back into
any computation, so results are bit-identical with metrics enabled or
disabled, and the disabled path is a handful of no-op singletons
(``benchmarks/test_bench_obs.py`` holds the disabled-mode overhead of the
instrumented 72k-reference online replay under 2%).

Instrumented code never takes a registry parameter.  It asks for the
*active* registry (:func:`get_registry`), which is the one installed by the
innermost :func:`recording` context — or a shared disabled registry whose
metric factories return no-op singletons when nothing is recording:

* :class:`Counter` — monotonically accumulating event counts,
* :class:`Gauge` — last-written values (pool sizes, trace lengths),
* :class:`Histogram` — fixed, caller-supplied bucket edges (values land in
  the first bucket whose upper edge is ``>= value``, with one overflow
  bucket past the last edge),
* :func:`span` / :class:`Span` — wall-clock timing context managers whose
  durations aggregate per name into :class:`SpanStats`; externally measured
  durations (forked pool workers) merge in deterministically via
  :meth:`MetricsRegistry.record_span`,
* :class:`EpochSeriesRecorder` — append-only per-epoch rows (the online
  engine's refs/s, hit ratios, realloc decisions, sketch sizes).

Registries **merge** (:meth:`MetricsRegistry.merge`): counters add, gauges
take the right operand when it was written, histograms with identical edges
add bucketwise, spans combine count/total/min/max, series concatenate.  The
merge is associative (hypothesis-asserted in ``tests/obs/test_registry.py``),
so sharded partials fold in any grouping: span and histogram totals are
summed exactly (:class:`_ExactSum`) and rounded once when read.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from fractions import Fraction
from types import TracebackType

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanStats",
    "EpochSeriesRecorder",
    "MetricsRegistry",
    "get_registry",
    "recording",
    "span",
]

#: Label sets are normalised to sorted key/value tuples so the same labels in
#: any keyword order address the same metric.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _ExactSum:
    """A float sum rounded once, when it is read.

    Finite terms add up as an exact :class:`~fractions.Fraction` (every float
    is one), so the total is the same however the terms were grouped; plain
    ``+=`` would make merged totals depend on the merge order in the last
    bit.  Infinite and NaN terms sum on the side, where float addition is
    order-free.
    """

    __slots__ = ("exact", "special")

    def __init__(self) -> None:
        self.exact = Fraction(0)
        self.special = 0.0

    def add(self, x: float) -> None:
        """Add one term exactly."""
        if math.isfinite(x):
            self.exact += Fraction(x)
        else:
            self.special += x

    def merge(self, other: "_ExactSum") -> None:
        """Add every term of ``other`` exactly."""
        self.exact += other.exact
        self.special += other.special

    @property
    def value(self) -> float:
        """The exact sum, rounded once to the nearest float."""
        return float(self.exact) + self.special


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0

    def add(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0: counters only ever go up)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount} to {self.name!r}")
        self.value += amount

    def inc(self) -> None:
        """Add one."""
        self.value += 1


class Gauge:
    """A last-written value (``None`` until first :meth:`set`)."""

    __slots__ = ("name", "labels", "value", "updated")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value: float | None = None
        self.updated = False

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value
        self.updated = True


class Histogram:
    """A fixed-bucket histogram.

    ``edges`` are the strictly increasing, finite upper bucket bounds; a
    value lands in the first bucket whose edge is ``>= value`` and anything
    beyond the last edge lands in the implicit overflow bucket, so
    ``counts`` has ``len(edges) + 1`` entries and always sums to ``count``.
    """

    __slots__ = ("name", "labels", "edges", "counts", "_sum", "count")

    def __init__(self, name: str, edges: Iterable[float], labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.edges = tuple(float(e) for e in edges)
        if not self.edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"histogram {name!r} edges must be strictly increasing, got {self.edges}")
        if any(e != e or e in (float("inf"), float("-inf")) for e in self.edges):
            raise ValueError(f"histogram {name!r} edges must be finite (the overflow bucket is implicit)")
        self.counts = [0] * (len(self.edges) + 1)
        self._sum = _ExactSum()
        self.count = 0

    @property
    def total(self) -> float:
        """Sum of every observed value."""
        return self._sum.value

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` falls into (``len(edges)`` = overflow)."""
        return bisect_left(self.edges, float(value))

    def observe(self, value: float) -> None:
        """Record one value."""
        self.counts[self.bucket_index(value)] += 1
        self._sum.add(float(value))
        self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of values."""
        for value in values:
            self.observe(value)


class SpanStats:
    """Aggregated wall-clock durations of one span name."""

    __slots__ = ("name", "labels", "count", "_sum", "min", "max")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.count = 0
        self._sum = _ExactSum()
        self.min = float("inf")
        self.max = 0.0

    @property
    def total(self) -> float:
        """Sum of every recorded duration in seconds."""
        return self._sum.value

    def record(self, seconds: float) -> None:
        """Fold one measured duration into the aggregate."""
        seconds = float(seconds)
        self.count += 1
        self._sum.add(seconds)
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)


class Span:
    """A timing context manager.

    The span always measures (``.seconds`` is valid after exit, so result
    fields like ``ProfileResult.seconds`` stay real measurements whether or
    not metrics are on); the *recording* into a registry is what the
    disabled fast path skips — a span created against a disabled registry
    carries ``None`` and its exit is two clock reads and a subtraction.
    """

    __slots__ = ("name", "labels", "seconds", "_registry", "_start")

    def __init__(self, registry: "MetricsRegistry | None", name: str, labels: dict[str, object] | None = None):
        self.name = name
        self.labels = labels or {}
        self.seconds = 0.0
        self._registry = registry
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.seconds = time.perf_counter() - self._start
        if self._registry is not None:
            self._registry.record_span(self.name, self.seconds, **self.labels)
        return False


class EpochSeriesRecorder:
    """An append-only sequence of per-epoch measurement rows."""

    __slots__ = ("name", "rows")

    def __init__(self, name: str):
        self.name = name
        self.rows: list[dict[str, object]] = []

    def record(self, **values: object) -> None:
        """Append one row (keyword order is preserved in the export)."""
        self.rows.append(dict(values))

    def __len__(self) -> int:
        return len(self.rows)


class _NullCounter:
    """Shared no-op counter returned by disabled registries."""

    __slots__ = ()
    value = 0

    def add(self, amount: int | float = 1) -> None:  # noqa: D102 - no-op twin of Counter.add
        pass

    def inc(self) -> None:  # noqa: D102 - no-op twin of Counter.inc
        pass


class _NullGauge:
    """Shared no-op gauge returned by disabled registries."""

    __slots__ = ()
    value = None
    updated = False

    def set(self, value: float) -> None:  # noqa: D102 - no-op twin of Gauge.set
        pass


class _NullHistogram:
    """Shared no-op histogram returned by disabled registries."""

    __slots__ = ()
    count = 0
    total = 0.0

    def observe(self, value: float) -> None:  # noqa: D102 - no-op twin of Histogram.observe
        pass

    def observe_many(self, values: Iterable[float]) -> None:  # noqa: D102 - no-op twin
        pass


class _NullSeries:
    """Shared no-op series recorder returned by disabled registries."""

    __slots__ = ()
    rows: tuple = ()

    def record(self, **values: object) -> None:  # noqa: D102 - no-op twin of EpochSeriesRecorder.record
        pass

    def __len__(self) -> int:
        return 0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SERIES = _NullSeries()


class MetricsRegistry:
    """The container for one run's metrics.

    ``enabled=False`` builds the shared no-op twin used when nothing is
    recording: every factory returns a null singleton and spans skip the
    record step, so instrumented hot paths cost (almost) nothing.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = bool(enabled)
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        self._spans: dict[tuple[str, _LabelKey], SpanStats] = {}
        self._series: dict[str, EpochSeriesRecorder] = {}

    # -- metric factories (instrumentation surface) ------------------------- #
    def counter(self, name: str, **labels: object) -> Counter | _NullCounter:
        """Get or create the counter ``name`` with these labels."""
        if not self.enabled:
            return _NULL_COUNTER
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter(name, {str(k): str(v) for k, v in labels.items()})
        return found

    def gauge(self, name: str, **labels: object) -> Gauge | _NullGauge:
        """Get or create the gauge ``name`` with these labels."""
        if not self.enabled:
            return _NULL_GAUGE
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge(name, {str(k): str(v) for k, v in labels.items()})
        return found

    def histogram(self, name: str, edges: Iterable[float], **labels: object) -> Histogram | _NullHistogram:
        """Get or create the fixed-bucket histogram ``name`` with these edges.

        Re-requesting an existing histogram with different edges is an error
        — bucket layouts are part of the metric's identity.
        """
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(name, edges, {str(k): str(v) for k, v in labels.items()})
        elif found.edges != tuple(float(e) for e in edges):
            raise ValueError(f"histogram {name!r} already exists with edges {found.edges}, requested {tuple(edges)}")
        return found

    def series(self, name: str) -> EpochSeriesRecorder | _NullSeries:
        """Get or create the per-epoch series recorder ``name``."""
        if not self.enabled:
            return _NULL_SERIES
        found = self._series.get(name)
        if found is None:
            found = self._series[name] = EpochSeriesRecorder(name)
        return found

    def span(self, name: str, **labels: object) -> Span:
        """A timing span recording into this registry (measuring either way)."""
        return Span(self if self.enabled else None, name, labels)

    def record_span(self, name: str, seconds: float, **labels: object) -> None:
        """Fold an externally measured duration into the span aggregates.

        This is how forked pool workers' chunk timings land in the parent
        registry: the parent records them *in task order*, so the aggregate
        is deterministic regardless of completion order.
        """
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        found = self._spans.get(key)
        if found is None:
            found = self._spans[key] = SpanStats(name, {str(k): str(v) for k, v in labels.items()})
        found.record(seconds)

    # -- aggregation -------------------------------------------------------- #
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s measurements into this registry (returns ``self``).

        Counters add; gauges take ``other``'s value when it was written;
        histograms must share edges and add bucketwise; spans combine
        count/total/min/max; series rows concatenate in order.  The operation
        is associative, so sharded partials fold in any grouping.
        """
        for (name, key), counter in other._counters.items():
            mine = self._counters.get((name, key))
            if mine is None:
                mine = self._counters[(name, key)] = Counter(name, dict(counter.labels))
            mine.value += counter.value
        for (name, key), gauge in other._gauges.items():
            mine = self._gauges.get((name, key))
            if mine is None:
                mine = self._gauges[(name, key)] = Gauge(name, dict(gauge.labels))
            if gauge.updated:
                mine.value = gauge.value
                mine.updated = True
        for (name, key), histogram in other._histograms.items():
            mine = self._histograms.get((name, key))
            if mine is None:
                mine = self._histograms[(name, key)] = Histogram(name, histogram.edges, dict(histogram.labels))
            elif mine.edges != histogram.edges:
                raise ValueError(f"cannot merge histogram {name!r}: edges {mine.edges} vs {histogram.edges}")
            mine.counts = [a + b for a, b in zip(mine.counts, histogram.counts)]
            mine._sum.merge(histogram._sum)
            mine.count += histogram.count
        for (name, key), stats in other._spans.items():
            mine = self._spans.get((name, key))
            if mine is None:
                mine = self._spans[(name, key)] = SpanStats(name, dict(stats.labels))
            mine.count += stats.count
            mine._sum.merge(stats._sum)
            mine.min = min(mine.min, stats.min)
            mine.max = max(mine.max, stats.max)
        for name, series in other._series.items():
            mine_series = self._series.get(name)
            if mine_series is None:
                mine_series = self._series[name] = EpochSeriesRecorder(name)
            mine_series.rows.extend(dict(row) for row in series.rows)
        return self

    def snapshot(self) -> dict[tuple[str, str, _LabelKey], object]:
        """An order-independent, comparable view of every recorded value.

        Keys are ``(kind, name, labels)``; values are plain comparable
        payloads.  Two registries with the same measurements — however they
        were grouped or merged — have equal snapshots (the associativity
        property tests compare these).
        """
        out: dict[tuple[str, str, _LabelKey], object] = {}
        for (name, key), counter in self._counters.items():
            out[("counter", name, key)] = counter.value
        for (name, key), gauge in self._gauges.items():
            out[("gauge", name, key)] = (gauge.value, gauge.updated)
        for (name, key), histogram in self._histograms.items():
            out[("histogram", name, key)] = (histogram.edges, tuple(histogram.counts), histogram.total)
        for (name, key), stats in self._spans.items():
            out[("span", name, key)] = (stats.count, stats.total, stats.min, stats.max)
        for name, series in self._series.items():
            out[("series", name, ())] = tuple(tuple(row.items()) for row in series.rows)
        return out

    def records(self) -> list[dict[str, object]]:
        """Flat JSON-serialisable records of everything recorded (export format).

        One record per metric — and one per series *row* — each carrying a
        ``type`` tag; this is the line schema of the JSONL exporter.
        """
        out: list[dict[str, object]] = []
        for counter in self._counters.values():
            out.append({"type": "counter", "name": counter.name, "labels": counter.labels, "value": counter.value})
        for gauge in self._gauges.values():
            out.append({"type": "gauge", "name": gauge.name, "labels": gauge.labels, "value": gauge.value})
        for histogram in self._histograms.values():
            out.append(
                {
                    "type": "histogram",
                    "name": histogram.name,
                    "labels": histogram.labels,
                    "edges": list(histogram.edges),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "count": histogram.count,
                }
            )
        for stats in self._spans.values():
            out.append(
                {
                    "type": "span",
                    "name": stats.name,
                    "labels": stats.labels,
                    "count": stats.count,
                    "total": stats.total,
                    "min": stats.min if stats.count else 0.0,
                    "max": stats.max,
                }
            )
        for series in self._series.values():
            for index, row in enumerate(series.rows):
                out.append({"type": "series", "name": series.name, "index": index, "row": dict(row)})
        return out


#: The shared disabled registry handed out when nothing is recording.
_NULL_REGISTRY = MetricsRegistry(enabled=False)

#: Stack of installed registries (innermost :func:`recording` wins).
_ACTIVE: list[MetricsRegistry] = []


def get_registry() -> MetricsRegistry:
    """The innermost recording registry, or the shared disabled one."""
    return _ACTIVE[-1] if _ACTIVE else _NULL_REGISTRY


@contextmanager
def recording(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the active recording target for the block."""
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.pop()


def span(name: str, **labels: object) -> Span:
    """A timing span against the active registry.

    The span's ``.seconds`` is a real measurement either way; when nothing
    is recording the exit skips the aggregation entirely (the fast path).
    """
    registry = _ACTIVE[-1] if _ACTIVE else None
    return Span(registry if registry is not None and registry.enabled else None, name, labels)
