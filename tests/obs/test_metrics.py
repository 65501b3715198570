"""MetricsRegistry: memoization, kind safety, snapshot schema, owned
counts, rollup subset."""

import json

import pytest

from repro.api import RunReport
from repro.campaign.runner import summarize_report
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_increments():
    counter = Counter()
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_gauge_tracks_value_and_high_water_mark():
    gauge = Gauge()
    gauge.set(3.0)
    gauge.set(1.0)
    assert gauge.value == 1.0
    assert gauge.max_value == 3.0
    gauge.update_max(7.0)
    assert gauge.max_value == 7.0
    gauge.update_max(2.0)  # keeps the high-water mark
    assert gauge.max_value == 7.0


def test_histogram_five_number_summary():
    histogram = Histogram()
    assert histogram.mean == 0.0
    for value in (3.0, 1.0, 2.0):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.total == 6.0
    assert histogram.min == 1.0
    assert histogram.max == 3.0
    assert histogram.last == 2.0
    assert histogram.mean == 2.0


def test_registry_memoizes_per_name():
    registry = MetricsRegistry()
    assert registry.counter("a.b") is registry.counter("a.b")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.gauge("x")
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.histogram("x")


def test_registry_shorthands():
    registry = MetricsRegistry()
    registry.inc("c", 2)
    registry.inc("c")
    registry.observe("h", 1.5)
    assert registry.counter("c").value == 3
    assert registry.histogram("h").count == 1


def test_snapshot_shape_is_json_ready_and_sorted():
    registry = MetricsRegistry()
    registry.inc("z.second")
    registry.inc("a.first", 4)
    registry.gauge("depth").update_max(6)
    registry.observe("wait", 0.5)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["counters", "gauges", "histograms"]
    assert list(snapshot["counters"]) == ["a.first", "z.second"]
    assert snapshot["counters"]["a.first"] == 4
    assert snapshot["gauges"]["depth"] == {"value": 6, "max": 6}
    assert snapshot["histograms"]["wait"] == {
        "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5,
        "mean": 0.5, "last": 0.5,
    }
    json.dumps(snapshot)  # JSON-serializable as-is


def test_snapshot_merges_nonzero_owned_counts_sorted():
    registry = MetricsRegistry()
    registry.inc("runtime.messages_delivered", 5)
    snapshot = registry.snapshot({"workload.requests_injected": 0,
                                  "controller.ticks": 3,
                                  "backend.frames_sent": 7})
    assert snapshot["counters"] == {"backend.frames_sent": 7,
                                    "controller.ticks": 3,
                                    "runtime.messages_delivered": 5}
    assert list(snapshot["counters"]) == sorted(snapshot["counters"])


def test_snapshot_refuses_a_registry_copy_of_an_owned_count():
    registry = MetricsRegistry()
    registry.inc("controller.ticks", 0)
    with pytest.raises(ValueError, match="controller.ticks"):
        registry.snapshot({"controller.ticks": 3})


def test_counters_subset_excludes_parallel_names():
    registry = MetricsRegistry()
    registry.inc("runtime.messages_delivered", 10)
    registry.inc("parallel.rounds", 3)
    registry.inc("parallel.handoff_items", 40)
    report = RunReport(system="randtree", metrics=registry.snapshot())
    assert summarize_report(report)["metrics"] == {
        "runtime.messages_delivered": 10}
    # ... but the full snapshot still shows them.
    assert report.metrics["counters"]["parallel.rounds"] == 3
