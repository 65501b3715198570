"""Heavy-traffic scale axis: events/sec and memory at 256 and 1000 nodes.

Prices the scale work end to end on a workload-driven live Chord
deployment — the O(active) scheduler, UDP checkpoint requests, sampled
deep checking (:class:`~repro.core.controller.CheckingPolicy`) and
delta-encoded checkpoints — against the per-node-tick-equivalent
**baseline**: every controller deep-checks every round (``period=1``,
full compressed checkpoint accounting, TCP checkpoint requests).  Both
variants drive the same open-loop lookup workload (2 req/s per node) with
property checking disabled, so the speedups price the scheduler and the
control plane alone.

``scaled_256_properties_on`` is the row beside them: the same scaled
256-node configuration with the default Chord properties checked after
every event, over a shorter window.  The live monitor re-checks only the
nodes an event touched, so its cost per event does not grow with the
deployment: this row must keep at least ``MIN_PROPERTIES_ON_RATIO`` of the
``scaled_256`` events/sec.

Each configuration runs in a forked child process so its peak RSS is its
own, not the harness's cumulative high-water mark.

The record is written to ``BENCH_scale.json`` at the repository root:
nodes x events/sec x peak RSS, plus per-node control-plane bytes (which
must stay flat as the deployment grows).  This is a nightly run outside
``BENCHMARK.json``'s four workloads; it has one size.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import time
from pathlib import Path

SEED = 1
MIN_SPEEDUP_256 = 2.0
MIN_SPEEDUP_1000 = 10.0
MIN_DELIVERED_1000 = 1_000_000
MIN_PROPERTIES_ON_RATIO = 0.5
MAX_CONTROL_BYTES_SCALED = 8000
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: label -> (nodes, duration, scaled?, default properties on?) — the scaled
#: 1000-node cell is sized so its traffic window (100s at 2000 req/s, ~6
#: messages per lookup) delivers over a million events.
CONFIGS = {
    "baseline_256": (256, 60.0, False, False),
    "scaled_256": (256, 120.0, True, False),
    "scaled_256_properties_on": (256, 60.0, True, True),
    "baseline_1000": (1000, 40.0, False, False),
    "scaled_1000": (1000, 120.0, True, False),
}


def _measure(nodes, duration, scaled, properties_on, queue):
    from repro.api import Experiment
    from repro.core.controller import CheckingPolicy
    from repro.mc import SearchBudget

    started = time.perf_counter()
    experiment = (Experiment("chord")
                  .nodes(nodes)
                  .duration(duration)
                  .churn(False)
                  .workload("lookups", rate=2.0 * nodes,
                            burst=max(4, nodes // 16), start=20.0)
                  .crystalball("debug",
                               budget=SearchBudget(max_states=8, max_depth=2),
                               checking=CheckingPolicy(
                                   period=max(1, nodes // 16) if scaled else 1,
                                   seed=0),
                               delta_checkpoints=scaled,
                               udp_checkpoint_requests=scaled)
                  .metrics()
                  .max_events(600_000 if not scaled else 4_000_000)
                  .seed(SEED))
    if not properties_on:
        experiment.properties()  # the empty selection: no live monitor
    report = experiment.run()
    wall = time.perf_counter() - started
    counters = report.metrics["counters"]
    queue.put({
        "nodes": nodes,
        "duration": duration,
        "checking_period": max(1, nodes // 16) if scaled else 1,
        "properties_on": properties_on,
        "wall_seconds": round(wall, 3),
        "events_executed": counters["runtime.events_executed"],
        "messages_delivered": counters["runtime.messages_delivered"],
        "events_per_sec": round(counters["runtime.events_executed"] / wall),
        "requests_injected": report.requests_injected(),
        "requests_completed": report.requests_completed(),
        "snapshots_collected": report.total("snapshots_collected"),
        "incomplete_snapshots": report.total("incomplete_snapshots"),
        "control_bytes_per_node": round(report.checkpoint_bytes() / nodes),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    })


def _run_config(*config):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    proc = ctx.Process(target=_measure, args=(*config, queue))
    proc.start()
    result = queue.get()
    proc.join()
    return result


def test_scale():
    results = {label: _run_config(*config)
               for label, config in CONFIGS.items()}

    def speedup(nodes):
        return round(results[f"scaled_{nodes}"]["events_per_sec"]
                     / results[f"baseline_{nodes}"]["events_per_sec"], 2)

    record = {
        "scenario": "chord-workload-scale",
        "workload": "lookups @ 2 req/s per node",
        "seed": SEED,
        "configs": results,
        "speedup_256": speedup(256),
        "min_speedup_256": MIN_SPEEDUP_256,
        "speedup_1000": speedup(1000),
        "min_speedup_1000": MIN_SPEEDUP_1000,
        "properties_on_ratio_256": round(
            results["scaled_256_properties_on"]["events_per_sec"]
            / results["scaled_256"]["events_per_sec"], 2),
        "min_properties_on_ratio_256": MIN_PROPERTIES_ON_RATIO,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    for label, result in results.items():
        assert result["requests_injected"] > 0, label
        assert (result["requests_completed"]
                > 0.9 * result["requests_injected"]), label
        assert result["snapshots_collected"] > 0, label
        if result["checking_period"] > 1:
            assert (result["control_bytes_per_node"]
                    <= MAX_CONTROL_BYTES_SCALED), label
    assert record["speedup_256"] >= MIN_SPEEDUP_256, record
    assert record["speedup_1000"] >= MIN_SPEEDUP_1000, record
    # Checking properties after every event keeps half the throughput.
    assert (record["properties_on_ratio_256"]
            >= MIN_PROPERTIES_ON_RATIO), record
    assert (results["scaled_1000"]["messages_delivered"]
            >= MIN_DELIVERED_1000), results["scaled_1000"]
    # The control plane stays flat per node as the deployment quadruples.
    assert (results["scaled_1000"]["control_bytes_per_node"]
            <= 1.5 * results["scaled_256"]["control_bytes_per_node"]), record
