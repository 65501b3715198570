"""Observability must not perturb runs: tracing+metrics on vs off, same
seed, bit-identical RunReport on every bundled system."""

import pytest

from repro.api import Experiment
from repro.api.report import OWNED_COUNTERS
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


#: Runs that light up the owners DEPLOYMENTS leave at zero: the tcp wire,
#: the nemesis, the workload driver and steering's filters.
OWNER_RUNS = {
    "tcp": lambda: (Experiment("randtree").nodes(4).duration(30.0).seed(3)
                    .mode("debug").backend("tcp")),
    "faults": lambda: (Experiment("randtree").nodes(5).duration(60.0)
                       .seed(2).faults("chaos").mode("steering")),
    "workload": lambda: (Experiment("chord").nodes(6).duration(40.0).seed(5)
                         .churn(False).mode("debug")
                         .workload("lookups", rate=8, burst=2, start=15)),
}


def _assert_counts_read_off_their_owners(report):
    """Every owned counter is present iff its owner's count is non-zero,
    and then equals it."""
    counters = report.metrics["counters"]
    for name, count in OWNED_COUNTERS.items():
        value = count(report)
        if value:
            assert counters.get(name) == value, name
        else:
            assert name not in counters, name


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
    _assert_counts_read_off_their_owners(observed)


@pytest.mark.parametrize("run", sorted(OWNER_RUNS))
def test_owned_counters_are_read_off_their_owners(run):
    report = OWNER_RUNS[run]().metrics(True).run()
    _assert_counts_read_off_their_owners(report)
    counters = report.metrics["counters"]
    lit = {"tcp": "backend.frames_sent", "faults": "faults.inject",
           "workload": "workload.requests_injected"}[run]
    assert counters[lit] > 0


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
