"""Thread-safe metrics registry: counters, gauges, histograms.

The instrumentation contract has two layers:

* **Hot-path gate** — the module-level :data:`ENABLED` flag.  Instrumented
  code guards every metric touch with ``if metrics.ENABLED:`` so the
  disabled (default) cost is one global load and a falsy test.  The
  benchmark gate in ``benchmarks/bench_extension_core.py`` holds this to
  <5% of hot-path throughput.
* **Registry** — when enabled, metrics live in a process-wide
  :class:`MetricsRegistry` keyed by ``(name, labels)``.  Labels make one
  logical metric a family (``hp.carry_words{n=4,k=2}``), mirroring the
  Prometheus data model the JSON export follows.

Every mutation is lock-protected, so native-thread substrates
(``parallel.threads`` engine ``native``, ``AtomicHPCell`` under a real
pool) can bang on one counter concurrently without losing increments —
unit-tested with a ``ThreadPoolExecutor`` hammer.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Iterator, Mapping

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA_VERSION",
]

#: Hot-path gate.  Mutate only through :func:`enable` / :func:`disable`.
ENABLED = False

#: Version stamped into every exported metrics document.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (a 1-2-5 decade ladder suited to
#: small discrete counts like CAS attempts per add).
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Normalize labels to a hashable, order-independent key.

    Values are stringified so ``n=4`` and ``n="4"`` name the same series
    (and so the JSON export is stable)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, bytes, carries...)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down (depths, occupancy, last-seen)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Distribution over fixed bucket upper bounds plus count/sum/min/max.

    Buckets are *non-cumulative* in storage and exported with their upper
    bound (``le``); observations above the last bound land in the
    overflow bucket (``le = null`` in JSON, +inf semantically).
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be sorted and non-empty: {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # First bound with ``value <= bound`` (bucket semantics are
        # upper-inclusive); bisect keeps a wide ladder O(log B) instead
        # of a linear scan per observation.
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative buckets: ``(le, count_of <= le)``
        pairs ending with ``(+inf, total)``.  Storage stays per-bucket
        (the JSON schema pins that); this is the exposition view, taken
        under the lock so a concurrent observe can never yield a ladder
        where a later bucket undercounts an earlier one."""
        with self._lock:
            running = 0
            out: list[tuple[float, int]] = []
            for bound, c in zip(self.buckets, self._counts):
                running += c
                out.append((bound, running))
            out.append((float("inf"), running + self._counts[-1]))
            return out

    def to_dict(self) -> dict:
        with self._lock:
            buckets = [
                {"le": bound, "count": c}
                for bound, c in zip(self.buckets, self._counts)
            ]
            buckets.append({"le": None, "count": self._counts[-1]})
            return {
                "name": self.name,
                "type": self.kind,
                "labels": dict(self.labels),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }


class _NullMetric:
    """Shared no-op stand-in returned by the module-level helpers while
    observability is disabled: every mutator accepts and discards."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Process-wide home for labeled metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair registers the metric, later calls return
    the same object, so call sites never need module-level metric globals.
    Requesting an existing name with a different metric type is an error —
    it would silently fork the series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelKey], object] = {}
        #: Bumped by :meth:`clear`; a call site caching metric objects
        #: re-fetches them when it changes.
        self.generation = 0

    def _get_or_create(self, cls, name: str, labels: Mapping[str, object],
                       **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def __iter__(self) -> Iterator:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def get(self, name: str, **labels: object):
        """Look up a metric without creating it (None when absent)."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: object):
        """Convenience: current value of a counter/gauge, 0 when absent."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0
        return metric.value

    def collect(self, prefix: str = "") -> list[dict]:
        """Export every metric (optionally name-filtered) as plain dicts,
        sorted by (name, labels) for stable output.

        The registry lock is held across the whole walk (not just the
        dict copy), so a scrape that races :meth:`reset` sees every
        series either before or after the wipe — never a half-cleared
        registry.  Metric locks nest inside the registry lock, in that
        order everywhere, so this cannot deadlock.
        """
        with self._lock:
            metrics = [
                m for m in self._metrics.values()
                if m.name.startswith(prefix)
            ]
            metrics.sort(key=lambda m: (m.name, m.labels))
            return [m.to_dict() for m in metrics]

    def snapshot(self, prefix: str = "") -> dict:
        """The full metrics document (see docs/OBSERVABILITY.md)."""
        return {
            "kind": "metrics",
            "schema_version": METRICS_SCHEMA_VERSION,
            "generated_unix": time.time(),
            "metrics": self.collect(prefix),
        }

    def reset(self) -> None:
        """Zero every registered metric (registration survives, so cached
        references held by call sites stay valid).  Holds the registry
        lock for the duration, pairing with :meth:`collect`, so a
        concurrent scrape observes the registry wholly-before or
        wholly-after the wipe."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()

    def clear(self) -> None:
        """Drop every registration (tests use this for isolation)."""
        with self._lock:
            self._metrics.clear()
            self.generation += 1


#: The process-wide default registry all built-in instrumentation targets.
REGISTRY = MetricsRegistry()


def enable() -> None:
    """Turn the metrics hot-path gate on."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn the metrics hot-path gate off (metrics keep their values)."""
    global ENABLED
    ENABLED = False


def counter(name: str, **labels: object):
    """Module-level get-or-create honouring the gate: returns the real
    registry counter when enabled, the shared no-op when disabled."""
    if not ENABLED:
        return NULL_METRIC
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: object):
    if not ENABLED:
        return NULL_METRIC
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
              **labels: object):
    if not ENABLED:
        return NULL_METRIC
    return REGISTRY.histogram(name, buckets=buckets, **labels)
