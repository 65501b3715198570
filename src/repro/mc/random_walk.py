"""Random-walk state exploration — MaceMC's random-walk mode (Section 5.3).

Instead of exhaustively enumerating successors, each walk repeatedly picks a
uniformly random enabled event and follows it up to a depth bound.  Random
walks reach much greater depths than exhaustive search but provide no
coverage guarantee; the paper reports that this mode found some, but not
all, of the bugs CrystalBall found.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .global_state import GlobalState
from ..properties import (
    SafetyProperty,
    derive_all,
    listed_all,
    safety_properties,
)
from .search import PredictedViolation, SearchBudget, SearchResult, SearchStats
from .transition import TransitionSystem


def random_walk_search(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    *,
    walks: int = 100,
    walk_depth: int = 30,
    seed: int = 0,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Run ``walks`` independent random walks of at most ``walk_depth`` steps."""
    budget = budget or SearchBudget(max_states=None)
    stats = SearchStats()
    rng = random.Random(seed)
    violations: list[PredictedViolation] = []
    seen_violation_hashes: set[int] = set()
    properties = safety_properties(properties)
    # Each step's verdicts are derived from the previous step's.
    first_verdicts = derive_all(properties, None, first_state, ())

    for _ in range(walks):
        if budget.exhausted(stats):
            break
        state, verdicts = first_state, first_verdicts
        path: tuple = ()
        for depth in range(walk_depth + 1):
            stats.record_visit(depth)
            state_hash = state.state_hash()
            for violation in listed_all(properties, verdicts, state):
                if (state_hash, violation.property_name) in seen_violation_hashes:
                    continue
                seen_violation_hashes.add((state_hash, violation.property_name))
                violations.append(
                    PredictedViolation(violation=violation, path=path,
                                       depth=depth, state_hash=state_hash)
                )
            if violations and budget.stop_at_first_violation:
                stats.touch_clock()
                return SearchResult(violations=violations, stats=stats,
                                    start_state=first_state)
            if depth == walk_depth or budget.exhausted(stats):
                break
            events = system.enabled_events(state)
            if not events:
                break
            event = rng.choice(events)
            state = system.apply(state, event)
            verdicts = derive_all(properties, verdicts, state, (event.node,))
            stats.transitions_applied += 1
            path = path + (event,)

    stats.touch_clock()
    return SearchResult(violations=violations, stats=stats, start_state=first_state)
