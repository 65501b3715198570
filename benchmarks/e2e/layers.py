"""``--trace 1``: the traced run of one workload plus the layer probes.

Three fresh children: the workload's first unit untraced, the same unit
with span tracing on, and the probes.  The traced unit must reproduce the
untraced unit's exact counts, and at least 90% of its wall time must land
on a named layer; the wall-time difference between the two is the tracing
overhead.  None of this feeds an end-to-end number.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Optional

from .harness import ROOT, check_units, run_unit, spawn, sub_seed
from .tracing import LAYERS

MIN_ATTRIBUTED = 0.90


def measure_layers(workload: str, size: str, seed: int,
                   out: Optional[Path]) -> dict:
    first = sub_seed(workload, seed, 0)
    trace_path = "-"
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        trace_path = str((out / f"{workload}.seed{seed}.trace.json")
                         .resolve())
    plain = run_unit(workload, size, first)
    traced = run_unit(workload, size, first, trace_path)
    scratch = tempfile.mkdtemp(prefix=".e2e-scratch-", dir=ROOT)
    try:
        metrics = spawn("probes", str(seed), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = check_units(workload, size, seed, [plain])
    if traced["counts"] != plain["counts"]:
        problems.append("the traced unit's exact counts differ from the "
                        "untraced unit's")
    trace = traced["trace"]
    self_s = trace["self_s"]
    attributed = 1.0 - self_s["other"] / traced["wall_s"]
    if attributed < MIN_ATTRIBUTED:
        problems.append(f"only {attributed:.0%} of the traced wall time "
                        "landed on a named layer")

    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_s[layer]
    never = {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0}
    calls = {name: trace["calls"].get(name, never) for name in (
        "CrystalBallController.on_tick",
        "CrystalBallController.immediate_safety_check",
        "consequence.consequence_prediction",
        "steering.check_filter_safety")}
    counts, measured = plain["counts"], plain["measured"]
    frames = counts.get("wire", {}).get("frames_sent", 0)
    requests = counts.get("requests", {})
    metrics.update({
        "trace.attributed_pct": attributed * 100.0,
        "trace.spans": trace["spans"],
        "obs.harness_trace_overhead_pct":
            (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0,
        "core.controller.tick_ms_mean":
            calls["CrystalBallController.on_tick"]["mean"] * 1e3,
        "core.consequence.run_ms_p50":
            calls["consequence.consequence_prediction"]["p50"] * 1e3,
        "core.consequence.run_ms_p95":
            calls["consequence.consequence_prediction"]["p95"] * 1e3,
        "core.steering.filter_recheck_ms_mean":
            calls["steering.check_filter_safety"]["mean"] * 1e3,
        "core.steering.rechecks":
            calls["steering.check_filter_safety"]["count"],
        "core.immediate.check_us":
            calls["CrystalBallController.immediate_safety_check"]["mean"]
            * 1e6,
        "core.monitor.violation_episodes":
            sum(counts.get("violations_by_property", {}).values()),
        "mc.search.dedup_hit_ratio": trace["dedup_hit_ratio"],
        "mc.search.peak_memory_bytes": trace["peak_memory_bytes"],
        "backends.tcp.frames_per_s": frames / plain["wall_s"],
        "backends.tcp.fallback_local":
            counts.get("wire", {}).get("fallback_local", 0),
        "backends.tcp.wire_bytes": measured.get("wire_bytes", 0),
        "workload.requests_per_s":
            requests.get("injected", 0) / plain["wall_s"],
        "workload.requests_skipped": requests.get("skipped", 0),
    })
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": measured["attempted"],
        "failed": measured.get("failed", 0),
        "metrics": metrics,
        "units": [plain, traced],
    }
