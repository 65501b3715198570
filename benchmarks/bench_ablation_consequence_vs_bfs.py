"""Ablation: the interleaving-reduction test of consequence prediction.

Removing the ``localExplored`` test of Figure 8 line 17 turns consequence
prediction back into the exhaustive search of Figure 5 (Section 3.2 makes
this point explicitly).  This ablation runs both algorithms from the same
live snapshot with the same state budget and compares depth reached, states
needed to find the first CrystalBall bug, and interleavings skipped; a
second sweep varies the snapshot (neighbourhood) size.
"""

from __future__ import annotations

from repro.core import consequence_prediction
from repro.mc import GlobalState, SearchBudget, find_errors
from repro.runtime import make_addresses
from repro.systems import randtree

from .conftest import make_system

BUDGET = SearchBudget(max_states=4000, max_depth=9)
SNAPSHOT_SIZES = (2, 3, 5)
SIZES = ("no figure: Section 3.2 argues that dropping the localExplored "
         "test turns consequence prediction into exhaustive search; "
         "Section 5.3 has prediction reach depth 7-8 on live snapshots",
         f"both searches from the Figure 2 RandTree snapshot under one "
         f"budget ({BUDGET.max_states} states, depth {BUDGET.max_depth}); "
         f"then prediction from joined trees of {SNAPSHOT_SIZES} nodes")


def _compare_on_figure2():
    scenario = randtree.Figure2Scenario.build()
    system = make_system(scenario.protocol)
    snapshot = scenario.global_state()
    cp = consequence_prediction(system, snapshot, randtree.ALL_PROPERTIES, BUDGET)
    bfs = find_errors(system, snapshot, randtree.ALL_PROPERTIES, BUDGET)
    return cp, bfs


def test_ablation_interleaving_reduction(scorecard):
    cp, bfs = _compare_on_figure2()
    assert scorecard(
        "ablation.depth", "§3.2, §5.3",
        "depth reached under one state budget, consequence prediction "
        "against exhaustive search (not shallower)",
        "7-8 against stalling",
        f"{cp.stats.max_depth_reached} against "
        f"{bfs.stats.max_depth_reached}", "levels",
        cp.stats.max_depth_reached >= bfs.stats.max_depth_reached)
    found = "randtree.children_siblings_disjoint" in cp.unique_property_names()
    assert scorecard(
        "ablation.finds_bug", "§3.2, Fig. 2",
        "consequence prediction predicts the Figure 2 children/siblings "
        "violation",
        True, found, "", found)
    assert scorecard(
        "ablation.skipped", "§3.2",
        "internal-action interleavings the localExplored test skips (more "
        "than none)",
        None, cp.stats.internal_actions_skipped, "interleavings",
        cp.stats.internal_actions_skipped > 0)


def _snapshot_size_sweep():
    """States consequence prediction visits per snapshot size."""
    visited = []
    for node_count in SNAPSHOT_SIZES:
        addrs = make_addresses(node_count, start=1)
        protocol = randtree.RandTree(randtree.RandTreeConfig(bootstrap=(addrs[0],),
                                                             max_children=2))
        states = {}
        root = protocol.initial_state(addrs[0])
        root.joined = True
        root.root = addrs[0]
        root.children = set(addrs[1:3])
        root.refresh_peers()
        states[addrs[0]] = root
        for child in addrs[1:]:
            state = protocol.initial_state(child)
            state.joined = True
            state.root = addrs[0]
            state.parent = addrs[0]
            state.refresh_peers()
            states[child] = state
        snapshot = GlobalState.from_snapshot(
            states, timers={a: [randtree.RECOVERY_TIMER] for a in addrs})
        result = consequence_prediction(make_system(protocol), snapshot,
                                        randtree.ALL_PROPERTIES, BUDGET)
        visited.append(result.stats.states_visited)
    return visited


def test_ablation_snapshot_size(scorecard):
    visited = _snapshot_size_sweep()
    # Larger neighbourhoods cost more states for the same budget/depth.
    assert scorecard(
        "ablation.snapshot_size", "§3.2",
        f"states prediction visits from a {SNAPSHOT_SIZES[-1]}-node "
        f"snapshot against a {SNAPSHOT_SIZES[0]}-node one (not fewer)",
        None, f"{visited[-1]} against {visited[0]}", "states",
        visited[-1] >= visited[0])
