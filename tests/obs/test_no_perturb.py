"""Observability must not perturb runs: tracing+metrics on vs off, same
seed, bit-identical RunReport on every bundled system."""

import pytest

from repro.api import Experiment
from repro.obs import validate_trace
from repro.obs.trace_tools import read_trace

#: (system, nodes, duration) — small but long enough that checkpoints,
#: snapshots and model-checker runs all fire.
DEPLOYMENTS = [
    ("randtree", 5, 40.0),
    ("chord", 8, 40.0),
    ("paxos", 5, 40.0),
    ("bulletprime", 6, 40.0),
    ("crdtset", 3, 40.0),
    ("kvstore", 3, 40.0),
]


#: ControllerStats field -> the metrics counter that mirrors it.
MIRRORED = {
    **{name: f"controller.{name}" for name in (
        "ticks", "snapshots_collected", "incomplete_snapshots",
        "checkpoints_taken", "forced_checkpoints", "checkpoint_bytes_sent",
        "filters_installed", "filters_triggered")},
    "model_checker_runs": "mc.runs",
    "violations_predicted": "mc.violations_predicted",
}


def _deterministic_dict(report):
    data = report.to_dict()
    data.pop("metrics")  # present only when metrics were enabled
    data.pop("wall_clock_seconds")  # real time, never deterministic
    return data


@pytest.mark.parametrize("system,nodes,duration", DEPLOYMENTS)
def test_tracing_and_metrics_do_not_perturb_the_run(
    system, nodes, duration, tmp_path
):
    def build():
        # At seed 18 churn leaves one chord gather incomplete.
        return (Experiment(system).nodes(nodes).duration(duration)
                .seed(18).mode("debug"))

    plain = build().run()
    trace_path = tmp_path / f"{system}.jsonl"
    observed = build().trace(trace_path).metrics(True).run()

    assert _deterministic_dict(plain) == _deterministic_dict(observed)

    # The observed run actually observed something.
    counters = observed.metrics["counters"]
    assert counters["runtime.events_executed"] > 0
    records = read_trace(trace_path)
    assert validate_trace(records) == []
    assert records[0]["system"] == system
    assert records[-1]["kind"] == "run_end"
    # Traced event count matches the metrics counter for executed events.
    executed = sum(1 for r in records
                   if r["kind"] == "event" and r["outcome"] == "executed")
    assert executed == counters["runtime.events_executed"]
    # A stat and the counter of the same name are one number.
    assert {stat: observed.total(stat) for stat in MIRRORED} \
        == {stat: counters.get(counter, 0)
            for stat, counter in MIRRORED.items()}


def test_metrics_snapshot_is_seed_deterministic():
    def run():
        return (Experiment("randtree").nodes(5).duration(40.0)
                .seed(3).mode("debug").metrics(True).run())

    first, second = run(), run()
    snap_a, snap_b = first.metrics, second.metrics
    assert snap_a["counters"] == snap_b["counters"]
    assert snap_a["gauges"] == snap_b["gauges"]
    # Histograms carry wall-clock sums: counts match, durations may not.
    assert {name: h["count"] for name, h in snap_a["histograms"].items()} \
        == {name: h["count"] for name, h in snap_b["histograms"].items()}
