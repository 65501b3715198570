"""Command line of the benchmark: ``python -m benchmarks.e2e``."""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from typing import Optional

from .harness import SPEC, measure
from .workloads import WORKLOADS


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def report(workload: str, seed: int, result: dict, promised: list[dict],
           out: Optional[Path]) -> None:
    """Print every metric by name with its unit, then the result line."""
    units_of = {metric["name"]: metric["unit"] for metric in promised}
    if set(units_of) != set(result["metrics"]):
        raise SystemExit(
            "the metrics measured are not the ones BENCHMARK.json names: "
            f"{sorted(set(units_of) ^ set(result['metrics']))}")
    for name in units_of:
        print(f"{workload:<24}{name:<44}"
              f"{result['metrics'][name]:>16.4f} {units_of[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload:<24}{'failed_ops_ratio':<44}"
          f"{failed / attempted:>16.4f} ratio  ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"{workload}: WRONG: {problem}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        row = {"workload": workload, "seed": seed, **environment(),
               **{k: result[k] for k in ("correct", "attempted", "failed",
                                         "metrics")},
               "counts": {str(u["seed"]): u["counts"]
                          for u in result["units"]}}
        with (out / "runs.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units_of.items()}}))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and the layer probes "
                             "(per-layer metrics) instead of the "
                             "end-to-end metrics")
    parser.add_argument("--layers", "--traced", dest="trace",
                        action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="cut-down workloads, one pass, for the tests")
    parser.add_argument("--out", type=Path,
                        help="directory for runs.jsonl and Chrome traces")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite expected/*.json from this run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two runs.jsonl files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        from .compare import compare_files
        return compare_files(*args.compare, SPEC)

    size = "smoke" if args.smoke else "bench"
    seconds = 0.0 if args.smoke else args.seconds
    ok = True
    for workload in ([args.workload] if args.workload else list(WORKLOADS)):
        if args.trace:
            from .layers import measure_layers
            result = measure_layers(workload, size, args.seed, args.out)
            promised = SPEC["per_layer"]
        else:
            result = measure(workload, size, args.seed, seconds,
                             args.update_goldens)
            promised = SPEC["end_to_end"]
        report(workload, args.seed, result, promised, args.out)
        ok = ok and result["correct"]
    return 0 if ok else 1
