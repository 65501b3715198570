"""Figures 15 and 16: consequence-prediction memory versus search depth.

Figure 15 shows the memory consumed by consequence prediction growing with
depth but staying around a megabyte at the depths CrystalBall uses (7-8);
Figure 16 shows the per-state memory converging to roughly 150 bytes.  We
report our search-tree memory estimate and bytes-per-state for increasing
depth bounds on the Figure 2 RandTree snapshot.
"""

from __future__ import annotations

from repro.core import consequence_prediction
from repro.mc import SearchBudget
from repro.systems import randtree

from .conftest import make_system

DEPTHS = [2, 3, 4, 5, 6, 7]
SIZES = ("consequence prediction on live RandTree snapshots, depths up to "
         "12, memory of the search tree",
         f"the Figure 2 RandTree snapshot, depths {DEPTHS[0]}-{DEPTHS[-1]}, "
         f"60,000-state cap; memory is the search's own estimate (pickled "
         f"size of the explored states)")


def _sweep():
    scenario = randtree.Figure2Scenario.build()
    system = make_system(scenario.protocol)
    rows = []
    for depth in DEPTHS:
        result = consequence_prediction(
            system, scenario.global_state(), randtree.ALL_PROPERTIES,
            SearchBudget(max_states=60_000, max_depth=depth))
        stats = result.stats
        rows.append((depth, stats.states_visited, stats.peak_memory_bytes,
                     stats.memory_per_state()))
    return rows


def test_fig15_fig16_memory_growth_and_per_state_cost(scorecard):
    rows = _sweep()
    memories = [memory for _, _, memory, _ in rows]
    per_state = [value for _, _, _, value in rows]
    # Memory grows with depth (Figure 15)...
    assert scorecard(
        "fig15.memory", "Fig. 15",
        f"search-tree memory at depth {DEPTHS[-1]} (more than at depth "
        f"{DEPTHS[0]}: {memories[0] / 1024:.1f} kB)",
        "about 1000 at depth 7-8", round(memories[-1] / 1024, 1), "kB",
        memories[-1] > memories[0])
    # ... and the per-state cost stabilises rather than diverging (Figure 16):
    # the last two depths agree within a factor of two.
    assert scorecard(
        "fig16.per_state", "Fig. 16",
        f"memory per explored state at depth {DEPTHS[-1]} (under twice "
        f"that at depth {DEPTHS[-2]}: {per_state[-2]:.0f} B)",
        150, round(per_state[-1]), "B",
        per_state[-1] < 2 * per_state[-2] + 1)
