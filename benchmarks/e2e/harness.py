"""Runs units in fresh child processes until the time box is full, turns
them into metrics and checks their outputs.

A run of one workload with ``--seed S`` is a sequence of units; unit ``i``
gets the sub-seed ``S * 1000 + i``, so one run measures several seeded
inputs.  Every metric is the median over those units.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spawn(module: str, *args: str) -> dict:
    """Run ``python -m benchmarks.e2e.<module>`` in a fresh interpreter and
    return the JSON object it prints last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(
            os.pathsep)).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-m", f"benchmarks.e2e.{module}", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(
            f"{module} {' '.join(args)} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_unit(workload: str, size: str, sub_seed: int,
             trace_path: str = "") -> dict:
    args = [workload, size, str(sub_seed), repr(time.time())]
    if trace_path:
        args.append(trace_path)
    return spawn("unit", *args)


def unit_metrics(unit: dict) -> dict[str, float]:
    """The end-to-end figures of one unit."""
    measured = unit["measured"]
    return {
        "setup_s": unit["setup_s"],
        "wall_s": unit["wall_s"],
        "states_per_s": measured["states"] / measured["search_seconds"],
        "events_per_s": measured["events"] / unit["wall_s"],
        "prediction_ms_mean": (1000.0 * measured["prediction_seconds"]
                               / measured["predictions"]),
        "control_bytes_per_node": measured["control_bytes_per_node"],
        "peak_rss_mb": unit["peak_rss_mb"],
    }


def aggregate(units: list[dict]) -> dict[str, float]:
    """Each metric's median over the units of one run."""
    samples = [unit_metrics(unit) for unit in units]
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


def sub_seed(workload: str, seed: int, index: int) -> int:
    """The seed of unit ``index``; 0 for a workload whose inputs have no
    random part."""
    return seed * 1000 + index if WORKLOADS[workload].seeded else 0


# ------------------------------------------------------------------ correctness

def golden_path(workload: str, size: str, seed: int) -> Path:
    """Exact counts per sub-seed; an unseeded workload has one golden."""
    if not WORKLOADS[workload].seeded:
        seed = 1
    return HERE / "expected" / f"{workload}.{size}.seed{seed}.json"


def check_units(workload: str, size: str, seed: int,
                units: list[dict], update_goldens: bool = False) -> list[str]:
    """Every reason this run's outputs are wrong (empty when correct).

    Sub-seeds the golden file covers must match it count for count; the
    rest, and every other seed, are only held to "no operation failed".
    """
    problems: list[str] = []
    path = golden_path(workload, size, seed)
    if update_goldens:
        path.write_text(json.dumps(
            {str(unit["seed"]): unit["counts"] for unit in units},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    golden = (json.loads(path.read_text(encoding="utf-8"))
              if path.exists() else {})
    for unit in units:
        counts, measured = unit["counts"], unit["measured"]
        label = f"sub-seed {unit['seed']}"
        expected = golden.get(str(unit["seed"]))
        if expected is not None and expected != counts:
            problems.append(f"{label} differs from {path.name} at "
                            f"{first_difference(expected, counts)}")
        if measured["failed"]:
            problems.append(f"{label}: {measured['failed']} of "
                            f"{measured['attempted']} operations failed")
        if not WORKLOADS[workload].seeded and expected is None:
            problems.append(f"{label}: no golden to check the searches' "
                            "known state counts against")
    return problems


def first_difference(left, right, path: str = "") -> str:
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right)):
            if left.get(key) != right.get(key):
                return first_difference(left.get(key), right.get(key),
                                        f"{path}/{key}")
    return f"{path or '/'}: {left!r} != {right!r}"


# ------------------------------------------------------------------------- runs

def measure(workload: str, size: str, seed: int, seconds: float,
            update_goldens: bool = False) -> dict:
    """The untraced run: units until the time box is full."""
    started = time.perf_counter()
    units: list[dict] = []
    while True:
        units.append(run_unit(workload, size,
                              sub_seed(workload, seed, len(units))))
        elapsed = time.perf_counter() - started
        # Stop where one more unit would overshoot by more than it fills.
        if elapsed + 0.5 * elapsed / len(units) >= seconds:
            break
    problems = check_units(workload, size, seed, units, update_goldens)
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(u["measured"]["attempted"] for u in units),
        "failed": sum(u["measured"]["failed"] for u in units),
        "metrics": aggregate(units),
        "units": units,
    }
