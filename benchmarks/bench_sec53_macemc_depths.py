"""Section 5.3: depths reachable by exhaustive search from the initial state.

The paper reports that after 17 hours MaceMC's exhaustive search reached
depth 12 for RandTree with 5 nodes, depth 1 with 100 nodes, depth 14 for
Chord with 5 nodes and depth 2 with 100 nodes — and found none of the bugs
CrystalBall found.  We reproduce the shape with a fixed state budget instead
of a 17-hour run: the reachable depth collapses as the number of nodes grows
and the CrystalBall-found violations stay out of reach of the search.
"""

from __future__ import annotations

import functools

import pytest

from repro.mc import GlobalState, SearchBudget, find_errors
from repro.runtime import make_addresses
from repro.systems import chord, randtree
from repro.systems.chord import JOIN_TIMER as CHORD_JOIN_TIMER
from repro.systems.randtree import JOIN_TIMER as RT_JOIN_TIMER

from .conftest import make_system

STATE_BUDGET = 4000
PAPER_DEPTHS = {("RandTree", 5): 12, ("RandTree", 100): 1,
                ("Chord", 5): 14, ("Chord", 100): 2}
SIZES = ("MaceMC exhaustive search from the initial state for 17 hours, "
         "RandTree and Chord with 5 and 100 nodes",
         f"the Figure 5 search from the initial state (every node about to "
         f"join, no resets), capped at {STATE_BUDGET} states, 5 and 25 nodes")


def _initial_state(system_name: str, node_count: int):
    addrs = make_addresses(node_count)
    if system_name == "RandTree":
        protocol = randtree.RandTree(randtree.RandTreeConfig(bootstrap=(addrs[0],)))
        timer = RT_JOIN_TIMER
        properties = randtree.ALL_PROPERTIES
    else:
        protocol = chord.Chord(chord.ChordConfig(bootstrap=(addrs[0],)))
        timer = CHORD_JOIN_TIMER
        properties = chord.ALL_PROPERTIES
    states = {a: protocol.initial_state(a) for a in addrs}
    timers = {a: [timer] for a in addrs}
    return protocol, GlobalState.from_snapshot(states, timers=timers), properties


@functools.cache  # the 25-node cases compare with the 5-node run
def _run(system_name: str, node_count: int):
    protocol, start, properties = _initial_state(system_name, node_count)
    result = find_errors(make_system(protocol, resets=False), start, properties,
                         SearchBudget(max_states=STATE_BUDGET))
    return result


@pytest.mark.parametrize("system_name,node_count",
                         [("RandTree", 5), ("RandTree", 25),
                          ("Chord", 5), ("Chord", 25)])
def test_exhaustive_depth_from_initial_state(scorecard, system_name, node_count):
    result = _run(system_name, node_count)
    claim = f"sec53.{system_name.lower()}{node_count}"
    # The scripted CrystalBall bugs (children/siblings, pred-self, ...) are
    # not reachable from the initial state within the budget.
    found = result.unique_property_names() & {
        "randtree.children_siblings_disjoint",
        "chord.pred_self_implies_succ_self"}
    assert scorecard(
        f"{claim}.bugs", "§5.3",
        f"CrystalBall's {system_name} bugs that exhaustive search from the "
        f"initial state reaches, {node_count} nodes (none)",
        0, len(found), "bugs", not found)
    if node_count > 5:
        small = _run(system_name, 5)
        assert scorecard(
            f"{claim}.depth", "§5.3",
            f"depth exhaustive search reaches on {system_name}, "
            f"{node_count} nodes against 5 (not deeper)",
            f"{PAPER_DEPTHS[system_name, 100]} against "
            f"{PAPER_DEPTHS[system_name, 5]} (100 nodes against 5)",
            f"{result.stats.max_depth_reached} against "
            f"{small.stats.max_depth_reached}", "levels",
            result.stats.max_depth_reached <= small.stats.max_depth_reached)
