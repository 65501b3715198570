"""Table 1: inconsistencies found per system by deep online debugging.

The paper reports 7 RandTree, 3 Chord and 3 Bullet' safety bugs found by
CrystalBall on live runs.  Here consequence prediction is run from the
scripted live states of the paper's figures (plus a Bullet' snapshot with a
congested transport) and we count the distinct safety properties violated
per system.
"""

from __future__ import annotations

from repro.core import consequence_prediction
from repro.mc import GlobalState, SearchBudget
from repro.runtime import Address
from repro.systems import bulletprime, chord, randtree
from repro.systems.bulletprime.protocol import DIFF_TIMER, DRAIN_TIMER, REQUEST_TIMER

from .conftest import make_system

PAPER_BUG_COUNTS = {"RandTree": 7, "Chord": 3, "BulletPrime": 3}
FLOORS = {"RandTree": 3, "Chord": 2, "BulletPrime": 1}
SIZES = ("live runs of 25-100 nodes, hours each",
         "consequence prediction from five scripted snapshots (RandTree "
         "Figures 2 and 9, Chord Figures 10 and 11, a 2-node Bullet' "
         "transfer), 6000 states / depth 9 (Bullet': 4000 / 6)")


def _bullet_snapshot():
    sender, receiver = Address(1), Address(2)
    config = bulletprime.BulletConfig(
        source=sender, mesh={sender: (receiver,), receiver: (sender,)},
        block_count=8, send_queue_capacity=64, fix_shadow_map=False)
    protocol = bulletprime.BulletPrime(config)
    sender_state = protocol.initial_state(sender)
    sender_state.queue_bytes[receiver] = 60
    receiver_state = protocol.initial_state(receiver)
    timers = {sender: {DIFF_TIMER, REQUEST_TIMER, DRAIN_TIMER},
              receiver: {DIFF_TIMER, REQUEST_TIMER, DRAIN_TIMER}}
    return protocol, GlobalState.from_snapshot(
        {sender: sender_state, receiver: receiver_state}, timers=timers)


def _count_bugs() -> dict[str, int]:
    found: dict[str, set[str]] = {"RandTree": set(), "Chord": set(),
                                  "BulletPrime": set()}
    budget = SearchBudget(max_states=6000, max_depth=9)

    for scenario in (randtree.Figure2Scenario.build(),
                     randtree.Figure9Scenario.build()):
        result = consequence_prediction(make_system(scenario.protocol),
                                        scenario.global_state(),
                                        randtree.ALL_PROPERTIES, budget)
        found["RandTree"] |= result.unique_property_names()

    for scenario, resets in ((chord.Figure10Scenario.build(), True),
                             (chord.Figure11Scenario.build(), False)):
        result = consequence_prediction(make_system(scenario.protocol, resets=resets),
                                        scenario.global_state(),
                                        chord.ALL_PROPERTIES, budget)
        found["Chord"] |= result.unique_property_names()

    protocol, snapshot = _bullet_snapshot()
    result = consequence_prediction(make_system(protocol, resets=False), snapshot,
                                    bulletprime.ALL_PROPERTIES,
                                    SearchBudget(max_states=4000, max_depth=6))
    found["BulletPrime"] |= result.unique_property_names()

    return {system: len(names) for system, names in found.items()}


def test_table1_bugs_found(scorecard):
    counts = _count_bugs()
    for system, floor in FLOORS.items():
        assert scorecard(
            f"table1.{system.lower()}", "Table 1",
            f"distinct {system} safety properties predicted violated "
            f"(at least {floor})",
            PAPER_BUG_COUNTS[system], counts[system], "bugs",
            counts[system] >= floor)
