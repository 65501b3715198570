"""Exhaustive breadth-first state-space search (Figure 5) — the MaceMC
baseline CrystalBall is compared against in Section 5.3.

The search starts from ``firstState`` (the initial system state in the
classic setting, or any supplied state for prefix-based search), explores
reachable global states in breadth-first order, caches visited-state hashes,
and reports every state that violates a safety property together with the
event path that reaches it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..properties import SafetyProperty
from .global_state import GlobalState
from .search import SearchBudget, SearchKind, SearchResult, breadth_first_search
from .transition import TransitionSystem


def find_errors(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Run the exhaustive search of Figure 5.

    Parameters
    ----------
    system:
        Transition system providing successor states.
    first_state:
        State the search starts from.
    properties:
        Safety properties to check in every visited state.
    budget:
        Stop criterion (state, depth and wall-clock bounds).
    """
    return breadth_first_search(system, first_state, properties, budget,
                                SearchKind.EXHAUSTIVE)
