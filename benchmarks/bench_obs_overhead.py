"""Observability overhead: the disabled path must be (nearly) free.

Every hot site in the runtime/monitor/controller now carries an
``if tracer is not None`` / ``if metrics is not None`` guard.  This
benchmark prices those guards on the same workload as the monitor-overhead
benchmark — a 24-node live Chord deployment, the per-event hot path of the
repo — via three identical seeded runs:

* **disabled** — observability off (``ObsContext()``): the production
  default, paying only the guards;
* **noop** — a :class:`~repro.obs.NullTracer` plus a live metrics
  registry: every guard passes and every helper dispatches, but nothing is
  recorded.  This is a strict superset of the disabled path's work, so
  ``noop/disabled - 1`` is a conservative *upper bound* on what the guards
  plus dispatch cost — the number the <3% gate judges;
* **traced** — a real :class:`~repro.obs.JsonlTracer` streaming to disk
  plus metrics: the full price of ``--trace``, reported for information.

All three runs must produce bit-identical reports (metrics and wall clock
aside) — observability that perturbs the run is a bug, not overhead.

The record is written to ``BENCH_obs_overhead.json`` at the repository
root.  Environment knobs: ``CB_OBS_BENCH_QUICK=1`` shrinks the run for CI
smoke; ``CB_OBS_BENCH_RESULT`` redirects the output so the committed
baseline is not clobbered; ``CB_OBS_NODES`` / ``CB_OBS_DURATION`` override
the deployment size.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.obs import JsonlTracer, NullTracer

QUICK = os.environ.get("CB_OBS_BENCH_QUICK", "") not in ("", "0")
NODES = int(os.environ.get("CB_OBS_NODES", "12" if QUICK else "24"))
DURATION = float(os.environ.get("CB_OBS_DURATION", "200" if QUICK else "400"))
SEED = 7
MAX_DISABLED_OVERHEAD_PCT = 3.0
RESULT_PATH = Path(os.environ.get(
    "CB_OBS_BENCH_RESULT",
    Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"))


def _run(variant, trace_dir):
    """One seeded live Chord run; returns (seconds, RunReport)."""
    experiment = (Experiment("chord").nodes(NODES).duration(DURATION)
                  .churn(interval=DURATION / 4).seed(SEED))
    if variant == "noop":
        experiment.trace(NullTracer()).metrics()
    elif variant == "traced":
        path = Path(trace_dir) / f"trace-{time.monotonic_ns()}.jsonl"
        experiment.trace(JsonlTracer(path)).metrics()
    started = time.perf_counter()
    report = experiment.run()
    elapsed = time.perf_counter() - started
    return elapsed, report


def _median_of(fn, rounds):
    samples = [fn() for _ in range(rounds)]
    samples.sort(key=lambda pair: pair[0])
    return samples[len(samples) // 2]


def _comparable(report):
    data = report.to_dict()
    data.pop("metrics")
    data.pop("wall_clock_seconds")
    return data


@pytest.mark.benchmark(group="obs_overhead")
def test_obs_overhead(benchmark, tmp_path):
    rounds = 1 if QUICK else 3

    def sweep():
        with tempfile.TemporaryDirectory(dir=tmp_path) as trace_dir:
            disabled = _median_of(lambda: _run("disabled", None), rounds)
            noop = _median_of(lambda: _run("noop", None), rounds)
            traced = _median_of(lambda: _run("traced", trace_dir), rounds)
        return disabled, noop, traced

    ((disabled_time, disabled_report),
     (noop_time, noop_report),
     (traced_time, traced_report)) = benchmark.pedantic(
        sweep, rounds=1, iterations=1)

    # Observability must not perturb the run, at any level.
    assert _comparable(disabled_report) == _comparable(noop_report)
    assert _comparable(disabled_report) == _comparable(traced_report)

    disabled_overhead_pct = max(0.0, noop_time / disabled_time - 1.0) * 100
    traced_overhead_pct = max(0.0, traced_time / disabled_time - 1.0) * 100
    counters = traced_report.metrics["counters"]

    print(f"\nObs overhead — chord, {NODES} nodes, {DURATION:.0f}s "
          f"simulated, {counters['runtime.events_executed']} events")
    print(f"{'variant':>10} {'seconds':>9} {'overhead':>9}")
    print(f"{'disabled':>10} {disabled_time:>9.2f} {'-':>9}")
    print(f"{'noop':>10} {noop_time:>9.2f} {disabled_overhead_pct:>8.2f}%")
    print(f"{'traced':>10} {traced_time:>9.2f} {traced_overhead_pct:>8.2f}%")

    record = {
        "scenario": f"chord-live-{NODES}nodes",
        "nodes": NODES,
        "duration": DURATION,
        "seed": SEED,
        "quick": QUICK,
        "events_executed": counters["runtime.events_executed"],
        "messages_sent": counters["runtime.messages_sent"],
        "disabled_seconds": round(disabled_time, 3),
        "noop_seconds": round(noop_time, 3),
        "traced_seconds": round(traced_time, 3),
        "disabled_overhead_pct": round(disabled_overhead_pct, 3),
        "traced_overhead_pct": round(traced_overhead_pct, 3),
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)

    if QUICK:
        return  # CI smoke records the numbers without judging them
    assert disabled_overhead_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled observability should be free; the no-op upper bound "
        f"measured {disabled_overhead_pct:.2f}% "
        f"(limit {MAX_DISABLED_OVERHEAD_PCT}%)")
