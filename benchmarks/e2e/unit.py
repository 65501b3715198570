"""One unit of one workload, in its own process.

``python -m benchmarks.e2e.unit WORKLOAD SIZE SEED SPAWNED_AT [TRACE_PATH]``
builds the inputs, runs the timed section once and prints one JSON object.
The parent starts a fresh interpreter per unit because a second run in a
warm process is not the same measurement: the same-seed tcp workload took
30 s fresh and 39 s as the second run of one process.

``SPAWNED_AT`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import repro``, the
system registry and building the inputs.  A ``TRACE_PATH`` argument turns
span tracing on; ``-`` traces without writing the Chrome trace.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run_unit(workload_name: str, size: str, seed: int, spawned_at: float,
             trace_path: str = "") -> dict:
    from .workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    recorder = None
    if trace_path:
        from .tracing import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
    inputs = workload.build(seed, workload.sizes[size])
    setup_s = time.time() - spawned_at

    started = time.perf_counter()
    outcome = workload.run(inputs)
    wall_s = time.perf_counter() - started

    outcome.update(
        workload=workload_name, size=size, seed=seed, setup_s=setup_s,
        wall_s=wall_s,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if recorder is not None:
        outcome["trace"] = _trace_summary(recorder, wall_s)
        if trace_path != "-":
            recorder.write_chrome_trace(
                trace_path, f"{workload_name}/{size}/seed{seed}")
    return outcome


def _trace_summary(recorder, wall_s: float) -> dict:
    searches = recorder.search_stats
    transitions = sum(s.transitions_applied for s in searches)
    return {
        "spans": len(recorder.spans),
        "self_s": recorder.self_seconds(wall_s),
        "calls": recorder.call_stats(),
        "dedup_hit_ratio": (sum(s.duplicate_states for s in searches)
                            / transitions if transitions else 0.0),
        "peak_memory_bytes": max(
            (s.peak_memory_bytes for s in searches), default=0),
    }


if __name__ == "__main__":
    name, size, seed, spawned_at = sys.argv[1:5]
    print(json.dumps(run_unit(name, size, int(seed), float(spawned_at),
                              *sys.argv[5:6])))
