#!/usr/bin/env python3
"""Bullet' file distribution: the shadow-file-map bug and CrystalBall overhead.

Part 1 (Section 5.2.3): consequence prediction from a small Bullet' snapshot
predicts the file-map inconsistency caused by clearing the shadow map when
the bounded transport refuses a Diff.  The snapshot comes from the
registered ``shadow-map`` scenario.

Part 2 (Figure 17): the registered ``download`` scenario is run with and
without a CrystalBall controller attached, comparing completion-time CDFs
and the bandwidth spent on checkpoints.  The same runs are available as
``python -m repro run bulletprime --scenario download``.

Run with::

    python examples/bullet_download.py
"""

from __future__ import annotations

from repro.analysis import empirical_cdf, format_table, median, slowdown
from repro.api import Experiment


def predict_shadow_map_bug() -> None:
    report = (Experiment("bulletprime").scenario("shadow-map").run())
    print("Part 1 — predicting the shadow-file-map inconsistency:")
    print(f"  states visited: {report.outcome['states_visited']}, "
          f"violations: {report.outcome['violations']}")
    if report.outcome["shortest_violation"]:
        print(f"  {report.outcome['shortest_violation']}")
        for step, described in enumerate(report.outcome["shortest_path"], start=1):
            print(f"    {step}. {described}")
    print()


def compare_download_overhead() -> None:
    print("Part 2 — download completion times with and without CrystalBall:")
    baseline = (Experiment("bulletprime").scenario("download").nodes(12)
                .mode("off").seed(3).options(block_count=32).run())
    monitored = (Experiment("bulletprime").scenario("download").nodes(12)
                 .mode("debug").seed(3).options(block_count=32).run())

    def times(report):
        return sorted(report.outcome["completion_times"].values())

    rows = [
        ["baseline", baseline.outcome["nodes_completed"],
         f"{median(times(baseline)):.1f}", baseline.outcome["service_bytes"], 0],
        ["CrystalBall", monitored.outcome["nodes_completed"],
         f"{median(times(monitored)):.1f}", monitored.outcome["service_bytes"],
         monitored.outcome["checkpoint_bytes"]],
    ]
    print(format_table(
        ["run", "nodes done", "median completion (s)", "service bytes",
         "checkpoint bytes"],
        rows))
    rel = slowdown(times(baseline), times(monitored))
    print(f"  relative median slowdown: {rel * 100:.1f}% "
          "(the paper reports <10% for a 20 MB download on 49 nodes)")
    print("  CDF (CrystalBall run):")
    for point in empirical_cdf(times(monitored))[::3]:
        print(f"    {point.fraction:5.2f} of nodes finished by {point.value:7.1f} s")


def main() -> None:
    predict_shadow_map_bug()
    compare_download_overhead()


if __name__ == "__main__":
    main()
