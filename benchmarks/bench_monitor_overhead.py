"""Live-monitor overhead: full per-event recheck vs the incremental path.

The live property monitor re-evaluates the property set after *every*
executed event, which makes it the per-event hot path of a live run.  The
incremental fast path re-checks node-scoped properties only at the dirty
nodes (the event's node plus liveness/incarnation changes); this benchmark
measures what that buys on a 24-node Chord deployment — all three Chord
properties are node-scoped, so the full recheck pays 24x the property work
per event.

Three identical seeded runs are timed: no monitor (the baseline event
cost), a full-recheck monitor, and an incremental monitor.  The *monitor
overhead* of each variant is its wall clock minus the baseline, and the
speedup is full-overhead / incremental-overhead.  The two monitored runs
must produce bit-identical violation records — the fast path is only a
fast path if it changes nothing.

The record is written to ``BENCH_monitor_overhead.json`` at the repository
root.  Environment knobs: ``CB_MONITOR_BENCH_QUICK=1`` shrinks the run for
CI smoke (no speedup assertion); ``CB_MONITOR_BENCH_RESULT`` redirects the
output so the committed baseline is not clobbered; ``CB_MONITOR_NODES`` /
``CB_MONITOR_DURATION`` override the deployment size.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import Experiment

QUICK = os.environ.get("CB_MONITOR_BENCH_QUICK", "") not in ("", "0")
NODES = int(os.environ.get("CB_MONITOR_NODES", "12" if QUICK else "24"))
DURATION = float(os.environ.get("CB_MONITOR_DURATION",
                                "200" if QUICK else "400"))
SEED = 7
RESULT_PATH = Path(os.environ.get(
    "CB_MONITOR_BENCH_RESULT",
    Path(__file__).resolve().parent.parent / "BENCH_monitor_overhead.json"))


def _run(monitor_mode):
    """One seeded 24-node Chord run; returns (seconds, monitor or None)."""
    experiment = (Experiment("chord").nodes(NODES).duration(DURATION)
                  .churn(interval=DURATION / 4).seed(SEED)
                  .incremental_monitor(bool(monitor_mode)))
    if monitor_mode is None:
        experiment.properties()  # the empty selection: nothing to check
    started = time.perf_counter()
    report = experiment.run()
    elapsed = time.perf_counter() - started
    return elapsed, report.live_monitor


def _median_of(fn, rounds):
    samples = [fn() for _ in range(rounds)]
    samples.sort(key=lambda pair: pair[0])
    return samples[len(samples) // 2]


@pytest.mark.benchmark(group="monitor_overhead")
def test_monitor_overhead(benchmark):
    rounds = 1 if QUICK else 3

    def sweep():
        baseline, _ = _median_of(lambda: _run(None), rounds)
        full_time, full_monitor = _median_of(lambda: _run(False), rounds)
        incremental_time, incremental_monitor = _median_of(
            lambda: _run(True), rounds)
        return (baseline, full_time, full_monitor,
                incremental_time, incremental_monitor)

    (baseline, full_time, full_monitor,
     incremental_time, incremental_monitor) = benchmark.pedantic(
        sweep, rounds=1, iterations=1)

    # The fast path must be invisible in the results.
    assert incremental_monitor.records == full_monitor.records
    assert (incremental_monitor.inconsistent_states
            == full_monitor.inconsistent_states)
    assert incremental_monitor.events_checked == full_monitor.events_checked

    full_overhead = max(full_time - baseline, 1e-9)
    incremental_overhead = max(incremental_time - baseline, 1e-9)
    speedup = full_overhead / incremental_overhead

    print(f"\nMonitor overhead — chord, {NODES} nodes, {DURATION:.0f}s "
          f"simulated, {full_monitor.events_checked} events checked")
    print(f"{'variant':>14} {'seconds':>9} {'overhead':>9}")
    print(f"{'no monitor':>14} {baseline:>9.2f} {'-':>9}")
    print(f"{'full recheck':>14} {full_time:>9.2f} {full_overhead:>9.2f}")
    print(f"{'incremental':>14} {incremental_time:>9.2f} "
          f"{incremental_overhead:>9.2f}")
    print(f"incremental speedup on monitor overhead: {speedup:.2f}x")

    record = {
        "scenario": f"chord-live-{NODES}nodes",
        "nodes": NODES,
        "duration": DURATION,
        "seed": SEED,
        "quick": QUICK,
        "events_checked": full_monitor.events_checked,
        "violation_episodes": len(full_monitor.records),
        "baseline_seconds": round(baseline, 3),
        "full_seconds": round(full_time, 3),
        "incremental_seconds": round(incremental_time, 3),
        "full_overhead_seconds": round(full_overhead, 3),
        "incremental_overhead_seconds": round(incremental_overhead, 3),
        "overhead_speedup": round(speedup, 3),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)

    if QUICK:
        return  # CI smoke records the numbers without judging them
    assert full_monitor.events_checked > 1_000, \
        "workload too small to be a meaningful overhead benchmark"
    assert speedup > 1.5, (
        f"incremental monitoring should cut per-event property work "
        f"~{NODES}x on node-scoped properties; measured {speedup:.2f}x")
