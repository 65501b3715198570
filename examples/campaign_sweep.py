"""Campaign sweeps: steering-off vs steering-on across seeds and faults.

The paper's headline numbers are aggregates — how often consequence
prediction plus execution steering avoids inconsistencies *across many
runs* — and the campaign subsystem is how the repo produces them.  This
example sweeps RandTree over seeds × fault presets × steering modes in one
worker-pool campaign, then reads the avoided-vs-observed story straight
off the per-axis rollups.

Run with::

    PYTHONPATH=src python examples/campaign_sweep.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import CampaignSpec, render_campaign_report, run_campaign


def main() -> int:
    spec = CampaignSpec(
        systems=["randtree"],
        seeds=range(3),
        fault_presets=["partition", "partition-churn"],
        modes=["off", "steering"],
        nodes=5,
        duration=120.0,
        network={"rst_loss": 0.6},
        options={"bootstrap_index": 1, "max_children": 2,
                 "fix_recovery_timer": True},
    )
    report = run_campaign(spec, jobs=2)

    print(render_campaign_report(report))
    print()

    off = report.rollups["mode"]["off"]
    steering = report.rollups["mode"]["steering"]
    print(f"steering off : {off['live_inconsistent_states']} live "
          f"inconsistent states over {off['runs']} runs")
    print(f"steering on  : {steering['live_inconsistent_states']} live "
          f"inconsistent states, {steering['violations_avoided']} "
          f"violations avoided over {steering['runs']} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
