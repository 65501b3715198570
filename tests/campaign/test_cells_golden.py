"""The campaign matrix is pinned cell by cell.

``tests/_golden/campaign_cells.json`` holds, for a set of matrices that
together exercise all eight axes, the axes block and every cell's
``RunSpec.to_dict()`` (``run_id`` included) in expansion order.  Run ids
key the result stores, so a change to any of them silently orphans every
stored record; the matrices therefore come in through the same two doors
real traffic uses — ``--axes`` strings through the CLI and ``CampaignSpec``
keyword arguments.  Block names are part of the pinned bytes, so the
``sweep-*`` blocks keep theirs.

Regenerate (only when a run id is *meant* to change) with::

    PYTHONPATH=src python tests/campaign/test_cells_golden.py
"""

import contextlib
import json
from pathlib import Path

import repro.campaign
from repro.api.cli import main
from repro.campaign import CampaignSpec

GOLDEN = Path(__file__).resolve().parents[1] / "_golden" / "campaign_cells.json"


class _Captured(Exception):
    """Carries the spec out of the patched ``run_campaign``."""


@contextlib.contextmanager
def _no_execution():
    def capture(spec, **_settings):
        raise _Captured(spec)

    original = repro.campaign.run_campaign
    repro.campaign.run_campaign = capture
    try:
        yield
    finally:
        repro.campaign.run_campaign = original


def _captured(build) -> CampaignSpec:
    """The spec ``build()`` hands to ``run_campaign``, without running it."""
    with _no_execution():
        try:
            build()
        except _Captured as captured:
            return captured.args[0]
    raise AssertionError("run_campaign was never reached")


def _cli(*arguments: str) -> CampaignSpec:
    return _captured(lambda: main(["campaign", *arguments]))


def _axes(*pairs: str) -> list[str]:
    return [part for pair in pairs for part in ("--axes", pair)]


#: The shared settings of the two ``sweep-*`` blocks over one configured
#: chord deployment.
_CONFIGURED = dict(
    systems=["chord"], properties_exclude=("chord.ring_stabilizes",),
    workload_overrides={"rate": 40.0, "burst": 4, "start": 30.0},
    nodes=6, duration=120.0, churn=True, churn_interval=45.0,
    network={"rtt": 0.02, "rst_loss": 0.5}, options={"fix_figure10": True},
    fault_seed=3, fault_start_after=10.0)


MATRICES = {
    "cli-ci-smoke": lambda: _cli(
        *_axes("systems=randtree,chord,crdtset,kvstore",
               "presets=partition,crash", "seeds=1", "modes=off"),
        "--duration", "80"),
    "cli-nightly-all-presets": lambda: _cli(
        *_axes("systems=all", "presets=all", "seeds=1", "modes=off"),
        "--duration", "randtree=160", "--duration", "paxos=60"),
    "cli-nightly-steering": lambda: _cli(
        *_axes("systems=crdtset,kvstore", "presets=all", "seeds=1",
               "modes=off,steering")),
    "cli-nightly-attack": lambda: _cli(
        *_axes("systems=paxos", "modes=attack", "presets=equivocation",
               "properties=paxos.agreement"),
        "--duration", "paxos=60"),
    "cli-nightly-tcp": lambda: _cli(
        *_axes("systems=randtree", "presets=all", "seeds=1", "modes=off",
               "backends=tcp")),
    "cli-keywords": lambda: _cli(
        *_axes("systems=chord", "scenarios=live",
               "faults=none,partition+delay", "seeds=2-3,7",
               "modes=isc-only",
               "properties=default,none,chord.*+randtree.*",
               "workloads=none,lookups", "backends=sim,tcp"),
        "--nodes", "5", "--churn", "--fault-seed", "9"),
    "cli-merged-flags": lambda: _cli(
        *_axes("systems=randtree", "presets=crash", "presets=all,none",
               "seeds=3", "seeds=4-5")),
    "cli-scenarios": lambda: _cli(
        *_axes("systems=randtree", "scenarios=figure2,none", "seeds=1,2",
               "modes=off,debug")),
    "cli-live-scenario-is-a-live-cell": lambda: _cli(
        *_axes("systems=randtree", "scenarios=partition-recovery",
               "presets=delay", "seeds=1", "backends=tcp")),
    "cli-figure13-is-a-live-cell": lambda: _cli(
        *_axes("systems=paxos", "scenarios=figure13-bug1",
               "presets=delay", "seeds=1", "backends=tcp")),
    "spec-every-axis": lambda: CampaignSpec(
        systems=("chord", "kvstore"),
        scenarios=(None,),
        fault_presets=(("partition", "delay"), "crash+reorder", None),
        seeds=range(2),
        modes=("steering",),
        properties=(("chord.*", "kvstore.*"), "none", None),
        properties_exclude=("chord.ring_stabilizes",),
        workloads=(None,),
        backends=("sim", "tcp"),
        nodes=4, duration=50.0, durations={"kvstore": 70.0},
        churn=True, churn_interval=30.0,
        network={"loss": 0.01, "rtt": 0.05},
        options={"b": 1, "a": [1, 2]},
        fault_seed=11, fault_start_after=5.0),
    "spec-workload-overrides": lambda: CampaignSpec(
        systems=["kvstore"], seeds=[2], workloads=["get-put", None],
        workload_overrides={"rate": 50.0, "burst": 4}),
    "spec-benchmark-probe": lambda: CampaignSpec(
        systems=("randtree", "chord", "kvstore"),
        fault_presets=(None, "partition"), seeds=tuple(range(8)),
        modes=("off", "steering")),
    "spec-defaults": lambda: CampaignSpec(),
    "sweep-builder-defaults": lambda: CampaignSpec(
        **_CONFIGURED, seeds=[5], modes=["debug"],
        fault_presets=[("partition", "delay")], properties=[("chord.*",)],
        workloads=["lookups"], backends=["tcp"]),
    "sweep-axes-override-builder": lambda: CampaignSpec(
        **_CONFIGURED, seeds=[1, 2], fault_presets=["crash", None],
        modes=["off", "steering"],
        properties=["chord.ordering_constraint", None], workloads=[None],
        backends=["sim"]),
    "sweep-example": lambda: CampaignSpec(
        systems=["randtree"], seeds=range(3),
        fault_presets=["partition", "partition-churn"],
        modes=["off", "steering"], nodes=5, duration=120.0,
        network={"rst_loss": 0.6},
        options={"bootstrap_index": 1, "max_children": 2,
                 "fix_recovery_timer": True}),
}


def render() -> str:
    """The golden text: one matrix per block, one compact cell per line."""

    def line(data) -> str:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    blocks = []
    for name, build in MATRICES.items():
        spec = build()
        cells = ",\n".join(f"   {line(cell.to_dict())}"
                           for cell in spec.expand())
        blocks.append(f' {line(name)}: {{\n  "axes": {line(spec.axes_dict())},'
                      f'\n  "cells": [\n{cells}\n  ]\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_every_cell_matches_the_golden_byte_for_byte():
    assert render() == GOLDEN.read_text(encoding="utf-8"), (
        "campaign cells drifted from tests/_golden/campaign_cells.json: a "
        "changed run_id orphans every stored record")


def test_the_golden_matrices_exercise_all_eight_axes():
    matrices = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cells = [cell for matrix in matrices.values() for cell in matrix["cells"]]
    for key in ("system", "scenario", "faults", "seed", "mode", "properties",
                "workload", "backend"):
        values = {json.dumps(cell[key]) for cell in cells}
        assert len(values) > 1, f"axis field {key!r} never varies"
    ids = [cell["run_id"] for cell in cells]
    for segment in (":props=", ":wl=", ":backend="):
        assert any(segment in run_id for run_id in ids), segment
    for name, matrix in matrices.items():
        matrix_ids = [cell["run_id"] for cell in matrix["cells"]]
        assert len(set(matrix_ids)) == len(matrix_ids), name


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
