"""Process-local metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` (the module-level :data:`REGISTRY`) collects
every metric the instrumented layers record — peel-loop counters, sampling
throughput, index build/load timings, serve-time request latencies.  The
design goals, in order:

* **near-zero overhead when disabled** — every mutator
  (:meth:`Counter.inc`, :meth:`Gauge.set`, :meth:`Histogram.observe`)
  returns immediately while :mod:`repro.obs.config` says telemetry is off,
  without taking a lock or touching the clock;
* **thread-safe when enabled** — mutations take the registry's lock, so
  concurrent server threads never lose increments;
* **derivable percentiles** — histograms use *fixed exponential buckets*
  (:data:`DEFAULT_LATENCY_BUCKETS`), so p50/p99 estimates come straight out
  of the bucket counts (:meth:`Histogram.quantile`) and two scrapes of the
  Prometheus exposition diff cleanly.

Metrics are identified by ``(name, labels)``: :meth:`MetricsRegistry.counter`
and friends get-or-create, so instrumented code never needs registration
boilerplate and repeated calls are cheap dictionary hits.
"""

from __future__ import annotations

import threading

from repro.exceptions import InvalidParameterError
from repro.obs import config

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "render_prometheus",
    "reset",
    "snapshot",
]

#: Fixed exponential latency buckets (seconds): 10 µs doubling up to ~42 s.
#: Every latency histogram shares them unless it asks for its own, so
#: percentiles are comparable across subsystems.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    10e-6 * 2.0**i for i in range(23)
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{str(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


class _Metric:
    """Shared identity (name, labels) and the registry's lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = lock


class Counter(_Metric):
    """A monotonically increasing count (events, items processed)."""

    kind = "counter"

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1); no-op while telemetry is disabled."""
        if not config._ENABLED:
            return
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount


class Gauge(_Metric):
    """A value that can go up and down (queue depth, uptime, occupancy)."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        if not config._ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not config._ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Metric):
    """A distribution over fixed exponential buckets (latencies, batch sizes).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (non-cumulative internally; the Prometheus rendering emits the usual
    cumulative ``le`` series), with one overflow slot past the last bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict,
        lock: threading.Lock,
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, labels, lock)
        if not buckets or any(b <= a for a, b in zip(buckets, buckets[1:])):
            raise InvalidParameterError(
                f"histogram {name!r} needs strictly increasing, non-empty buckets"
            )
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        return tuple(self._counts)

    def observe(self, value: float) -> None:
        """Record one observation; no-op while telemetry is disabled."""
        if not config._ENABLED:
            return
        slot = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    def merge_from(
        self, cumulative: list[int], count: int, total: float
    ) -> None:
        """Accumulate another histogram's snapshot (same bucket layout).

        ``cumulative`` is the snapshot's cumulative per-bucket count list;
        overflow observations are recovered from ``count``.  No-op while
        telemetry is disabled.
        """
        if not config._ENABLED:
            return
        if len(cumulative) != len(self.buckets):
            raise InvalidParameterError(
                f"histogram {self.name!r} cannot merge a snapshot with "
                f"{len(cumulative)} buckets into {len(self.buckets)}"
            )
        deltas = []
        previous = 0
        for value in cumulative:
            deltas.append(value - previous)
            previous = value
        with self._lock:
            for i, delta in enumerate(deltas):
                self._counts[i] += delta
            self._counts[-1] += count - previous
            self._sum += total
            self._count += count

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (0 < q <= 1) from the bucket counts.

        Returns the upper bound of the bucket holding the quantile (the
        last finite bound for overflow observations), or ``None`` when the
        histogram is empty.  Exact enough for p50/p99 dashboards given the
        fixed exponential bucket layout.
        """
        if not 0.0 < q <= 1.0:
            raise InvalidParameterError(f"quantile must be in (0, 1], got {q}")
        if self._count == 0:
            return None
        rank = q * self._count
        cumulative = 0
        for i, bound in enumerate(self.buckets):
            cumulative += self._counts[i]
            if cumulative >= rank:
                return bound
        return self.buckets[-1]


class MetricsRegistry:
    """Get-or-create home of every metric in the process.

    ``registry.counter("repro_peel_repairs_total", repair="dp")`` returns
    the one counter with that (name, labels) identity, creating it on first
    use.  A name is bound to one metric kind (and, for histograms, one
    bucket layout) — asking for the same name as a different kind raises
    :class:`~repro.exceptions.InvalidParameterError` instead of silently
    splitting the series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], _Metric] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    def _get_or_create(self, cls, name: str, help: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                bound_kind = self._kinds.get(name)
                if bound_kind is not None and bound_kind != cls.kind:
                    raise InvalidParameterError(
                        f"metric {name!r} is already registered as a "
                        f"{bound_kind}, not a {cls.kind}"
                    )
                metric = cls(name, labels, self._lock, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
                if help:
                    self._help.setdefault(name, help)
            elif not isinstance(metric, cls):
                raise InvalidParameterError(
                    f"metric {name!r}{_format_labels(labels)} is a "
                    f"{metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter named ``name`` with exactly these ``labels``."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge named ``name`` with exactly these ``labels``."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        """The histogram named ``name`` with exactly these ``labels``."""
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def collect(self) -> list[_Metric]:
        """All registered metrics in deterministic (name, labels) order."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric (test isolation and benchmark repeats)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._help.clear()

    def merge_snapshot(self, payload: dict) -> None:
        """Fold another process's :meth:`snapshot` into this registry.

        The registry is process-local, so telemetry recorded in a worker
        dies with it unless shipped back as a snapshot and merged: counters
        and histograms accumulate, gauges take the incoming value.  The
        experiment pipeline uses this to pull per-cell worker metrics into
        the parent's registry.  No-op while telemetry is disabled.
        """
        if not config._ENABLED:
            return
        for entry in payload.get("metrics", []):
            labels = entry.get("labels", {})
            kind = entry.get("type")
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(float(entry["value"]))
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).set(float(entry["value"]))
            elif kind == "histogram":
                bounds = tuple(float(bound) for bound, _ in entry["buckets"])
                self.histogram(entry["name"], buckets=bounds, **labels).merge_from(
                    [count for _, count in entry["buckets"]],
                    entry["count"],
                    entry["sum"],
                )

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-safe dump of the registry.

        Returns ``{"enabled": bool, "metrics": [...]}``; while telemetry is
        disabled the metric list is empty (the payload the ``stats`` wire
        operation returns in disabled mode).  Histogram entries carry their
        cumulative buckets plus derived ``p50``/``p99`` so log lines and CI
        checks need no client-side math.
        """
        if not config._ENABLED:
            return {"enabled": False, "metrics": []}
        metrics = []
        for metric in self.collect():
            entry: dict = {
                "name": metric.name,
                "type": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                cumulative = []
                running = 0
                for bound, count in zip(metric.buckets, metric.bucket_counts):
                    running += count
                    cumulative.append([bound, running])
                entry.update(
                    count=metric.count,
                    sum=metric.sum,
                    buckets=cumulative,
                    p50=metric.quantile(0.50),
                    p99=metric.quantile(0.99),
                )
            else:
                entry["value"] = metric.value
            metrics.append(entry)
        return {"enabled": True, "metrics": metrics}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry.

        Returns the empty string while telemetry is disabled, so scrapers
        see "no metrics" rather than a frozen registry.  Histograms emit the
        standard cumulative ``_bucket{le=...}`` series plus ``_sum`` and
        ``_count``.
        """
        if not config._ENABLED:
            return ""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in self.collect():
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                help_text = self._help.get(metric.name, "")
                if help_text:
                    lines.append(f"# HELP {metric.name} {help_text}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                running = 0
                for bound, count in zip(metric.buckets, metric.bucket_counts):
                    running += count
                    labels = {**metric.labels, "le": repr(bound)}
                    lines.append(
                        f"{metric.name}_bucket{_format_labels(labels)} {running}"
                    )
                labels = {**metric.labels, "le": "+Inf"}
                lines.append(
                    f"{metric.name}_bucket{_format_labels(labels)} {metric.count}"
                )
                suffix = _format_labels(metric.labels)
                lines.append(f"{metric.name}_sum{suffix} {repr(metric.sum)}")
                lines.append(f"{metric.name}_count{suffix} {metric.count}")
            else:
                lines.append(
                    f"{metric.name}{_format_labels(metric.labels)} "
                    f"{_format_value(metric.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry every instrumented layer records into.
REGISTRY = MetricsRegistry()


def snapshot() -> dict:
    """JSON-safe dump of the global registry (see :meth:`MetricsRegistry.snapshot`)."""
    return REGISTRY.snapshot()


def render_prometheus() -> str:
    """Prometheus text exposition of the global registry."""
    return REGISTRY.render_prometheus()


def reset() -> None:
    """Clear the global registry (test isolation / benchmark repeats)."""
    REGISTRY.reset()
