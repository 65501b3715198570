"""Figure 12: elapsed time of exhaustive search as a function of depth.

The paper shows the exponential growth of MaceMC's exhaustive search on
RandTree with 5 nodes (hours by depth 12-13).  We measure the elapsed time
and visited states of our Figure 5 implementation for increasing depth
bounds and check the exponential shape via consecutive-depth growth ratios.
"""

from __future__ import annotations

from repro.analysis import growth_ratios
from repro.mc import GlobalState, SearchBudget, find_errors
from repro.runtime import make_addresses
from repro.systems import randtree

from .conftest import make_system

DEPTHS = [1, 2, 3, 4, 5]
SIZES = ("MaceMC on RandTree, 5 nodes, depths up to 12-13 (hours)",
         f"the Figure 5 search on RandTree, 5 nodes joining, no resets, "
         f"depths {DEPTHS[0]}-{DEPTHS[-1]}")


def _initial_state():
    addrs = make_addresses(5)
    protocol = randtree.RandTree(randtree.RandTreeConfig(bootstrap=(addrs[0],)))
    states = {a: protocol.initial_state(a) for a in addrs}
    timers = {a: [randtree.JOIN_TIMER] for a in addrs}
    return protocol, GlobalState.from_snapshot(states, timers=timers)


def _sweep():
    protocol, start = _initial_state()
    system = make_system(protocol, resets=False)
    rows = []
    for depth in DEPTHS:
        result = find_errors(system, start, randtree.ALL_PROPERTIES,
                             SearchBudget(max_states=200_000, max_depth=depth))
        rows.append((depth, result.stats.states_visited,
                     result.stats.elapsed_seconds))
    return rows


def test_fig12_exhaustive_search_growth(scorecard):
    rows = _sweep()
    state_counts = [states for _, states, _ in rows]
    ratios = growth_ratios([float(s) for s in state_counts])
    # Exponential blow-up: each extra level multiplies the explored states.
    assert scorecard(
        "fig12.growth", "Fig. 12",
        f"smallest level-to-level growth of visited states, depths "
        f"{DEPTHS[1]}-{DEPTHS[-1]} (at least 1.5x)",
        "exponential", round(min(ratios[1:]), 2), "x",
        all(ratio >= 1.5 for ratio in ratios[1:]))
    assert scorecard(
        "fig12.blowup", "Fig. 12",
        f"visited states at depth {DEPTHS[-1]} over depth {DEPTHS[0]} "
        f"(more than 20x)",
        None, round(state_counts[-1] / state_counts[0], 1), "x",
        state_counts[-1] > 20 * state_counts[0])
    assert scorecard(
        "fig12.seconds", "Fig. 12",
        f"elapsed time of the depth-{DEPTHS[-1]} search (more than at "
        f"depth {DEPTHS[0]})",
        "hours at depth 12-13", round(rows[-1][2], 2), "s",
        rows[-1][2] > rows[0][2])
