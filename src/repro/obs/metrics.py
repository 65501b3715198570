"""The metrics registry: counters, gauges and histograms for one run.

A :class:`MetricsRegistry` is the quantitative half of ``repro.obs``.  It
counts only what no other layer keeps (messages delivered and dropped,
monitor cache hits, model-checker states, parallel handoff, attack
attempts) and holds every gauge and histogram.  A count some layer already
keeps is read off that owner when the run finishes and handed to
:meth:`MetricsRegistry.snapshot`, which merges it into ``counters`` and
refuses a registry counter of the same name.  The snapshot is the
JSON-ready dict :class:`~repro.api.report.RunReport` carries as
``report.metrics``.

Determinism contract
--------------------
*Counters* and *gauges* only ever record event counts and sizes derived
from the seeded simulation, so their snapshot is bit-identical across
reruns of the same seed — campaign aggregates fold **counters only** for
exactly this reason.  *Histograms* are where wall-clock observations live
(per-phase controller timings, model-checker run seconds); their sums are
real time and therefore excluded from every deterministic rollup.

Metric names are dotted paths namespaced by layer, e.g.
``runtime.messages_delivered``, ``monitor.node_checks_cached``,
``controller.mc_run_seconds``, ``parallel.barrier_wait_seconds`` (see the
README's metrics catalogue).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time numeric metric (last value and high-water mark)."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def update_max(self, value: float) -> None:
        """Record ``value`` only as a high-water mark (keeps ``value`` too)."""
        self.set(max(self.value, value))


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max/last).

    No buckets: the consumers here want totals and extremes, and a fixed
    five-number summary keeps the snapshot shape schema-stable.
    """

    __slots__ = ("count", "total", "min", "max", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.last: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.last = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics for one run, created lazily on first use.

    ``counter``/``gauge``/``histogram`` memoize per name, so hot paths can
    resolve a metric once and keep the handle.  Asking for an existing name
    with a different kind raises — a metric's kind is part of its schema.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, "counter")
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, "gauge")
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, "histogram")
            metric = self._histograms[name] = Histogram()
        return metric

    def inc(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Shorthand for ``histogram(name).observe(value)``."""
        self.histogram(name).observe(value)

    # ------------------------------------------------------------ snapshot

    def snapshot(self, owned: Optional[Mapping[str, int]] = None
                 ) -> dict[str, Any]:
        """JSON-ready view of every metric, keys sorted for stable output.

        ``owned`` maps counter names to counts another layer keeps (read
        off the finished run); every non-zero one joins ``counters``.  A
        registry counter under an owned name is a second copy of that count
        and raises :class:`ValueError`.

        Shape (schema v1)::

            {"counters":   {name: int},
             "gauges":     {name: {"value": x, "max": y}},
             "histograms": {name: {"count", "sum", "min", "max", "mean",
                                   "last"}}}
        """
        owned = owned or {}
        copies = sorted(set(owned) & set(self._counters))
        if copies:
            raise ValueError(
                f"counter(s) {copies} have an owner outside the registry; "
                f"read them off the run instead of counting them twice")
        counters = {name: metric.value
                    for name, metric in self._counters.items()}
        counters.update((name, value) for name, value in owned.items()
                        if value)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {
                name: {"value": metric.value, "max": metric.max_value}
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min,
                    "max": metric.max,
                    "mean": metric.mean,
                    "last": metric.last,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }
