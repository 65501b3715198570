"""Figure 17: CrystalBall's impact on Bullet' download times.

The paper has 49 nodes download a 20 MB file and shows that running
CrystalBall alongside Bullet' slows the download by less than 10%, with
checkpoints consuming about 30 kbps per node.  We run a scaled-down download
with and without a CrystalBall controller and compare the completion-time
CDFs and the checkpoint bandwidth share.
"""

from __future__ import annotations

import pytest

from repro.analysis import empirical_cdf, median, slowdown
from repro.api import Experiment

NODES = 12
BLOCKS = 32


def _run_download(mode: str):
    return (Experiment("bulletprime")
            .scenario("download")
            .nodes(NODES)
            .duration(400.0)
            .mode(mode)
            .seed(13)
            .options(block_count=BLOCKS)
            .run())


def _run_pair():
    return _run_download("off"), _run_download("debug")


def _times(report):
    return sorted(report.outcome["completion_times"].values())


@pytest.mark.benchmark(group="fig17")
def test_fig17_bullet_download_overhead(benchmark):
    baseline, monitored = benchmark.pedantic(_run_pair, rounds=1, iterations=1)
    base_times = _times(baseline)
    cb_times = _times(monitored)
    rel = slowdown(base_times, cb_times)
    checkpoint_bytes = monitored.outcome["checkpoint_bytes"]
    ckpt_share = (checkpoint_bytes
                  / max(1, checkpoint_bytes + monitored.outcome["service_bytes"]))
    print(f"\nFigure 17 — Bullet' download ({NODES} nodes, {BLOCKS} blocks)")
    print(f"  baseline median completion:    {median(base_times):8.1f} s "
          f"({baseline.outcome['nodes_completed']}/{baseline.outcome['total_nodes']} nodes)")
    print(f"  CrystalBall median completion: {median(cb_times):8.1f} s "
          f"({monitored.outcome['nodes_completed']}/{monitored.outcome['total_nodes']} nodes)")
    print(f"  median slowdown: {rel * 100:.1f}%  (paper: <10%)")
    print(f"  checkpoint bytes: {checkpoint_bytes} "
          f"({ckpt_share * 100:.1f}% of total traffic)")
    benchmark.extra_info.update({
        "baseline_cdf": [(p.value, p.fraction) for p in empirical_cdf(base_times)],
        "crystalball_cdf": [(p.value, p.fraction) for p in empirical_cdf(cb_times)],
        "median_slowdown": rel,
        "checkpoint_bytes": checkpoint_bytes,
    })
    assert baseline.outcome["nodes_completed"] == baseline.outcome["total_nodes"]
    assert monitored.outcome["nodes_completed"] == monitored.outcome["total_nodes"]
    # The shape of the paper's result: monitoring does not blow up the
    # download time (we allow a generous margin on the scaled-down setup).
    assert rel < 0.5
