"""``--compare A B``: were two sets of runs the same, within the bounds?

``A`` and ``B`` are ``runs.jsonl`` files (or the ``--out`` directories that
hold them) with one row per run.  For every (workload, end-to-end metric)
pair the table shows both medians, the bound and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the spread of A's or B's own runs (inter-quartile range
  over the median) is wider than the bound, so the pair cannot tell, unless
  every run of B reads better than every run of A.

Exact counts are compared for equality: a sub-seed that both sets ran must
have produced identical counts.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: str) -> list[dict]:
    source = Path(path)
    if source.is_dir():
        source = source / "runs.jsonl"
    rows = [json.loads(line) for line in source.read_text(
        encoding="utf-8").splitlines() if line.strip()]
    # Traced runs carry per-layer metrics and are not comparable here.
    return [row for row in rows if "wall_s" in row["metrics"]]


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(ok | worse | unresolved, how much worse B's median is than A's)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / median_a
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        return ("ok" if all_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    rows_a, rows_b = load(path_a), load(path_b)
    failures = 0
    print(f"{'workload':<24}{'metric':<24}{'median A':>14}{'median B':>14}"
          f"{'B worse by':>12}{'bound':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        of_a = [r for r in rows_a if r["workload"] == workload]
        of_b = [r for r in rows_b if r["workload"] == workload]
        if not of_a or not of_b:
            print(f"{workload:<24}missing from "
                  f"{'A' if not of_a else 'B'}")
            failures += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in of_a]
            b = [r["metrics"][name] for r in of_b]
            status, worse_by = verdict(a, b, metric["better"],
                                       metric["bound"])
            failures += status == "worse"
            print(f"{workload:<24}{name:<24}{statistics.median(a):>14.4f}"
                  f"{statistics.median(b):>14.4f}{worse_by:>+12.1%}"
                  f"{metric['bound']:>8.0%}  {status}")
        counts: dict[str, dict] = {}
        differing = set()
        for row in of_a + of_b:
            for sub_seed, found in row["counts"].items():
                if counts.setdefault(sub_seed, found) != found:
                    differing.add(sub_seed)
        failures += bool(differing)
        print(f"{workload:<24}{'exact counts':<24}"
              f"{len(counts)} sub-seeds compared: "
              + (f"DIFFER on {sorted(differing)}" if differing
                 else "identical"))
    return 1 if failures else 0
