"""Execution steering: from a predicted violation to a vetted filter
(Section 3.3).

A :class:`~repro.mc.search.PredictedViolation` — from this round's search or
a replayed error path — carries the event path from the snapshot to the
inconsistent state.  :func:`steering_filter` turns the earliest point on
that path where the local node can intervene (its own message or timer
handler) into an event filter.  Before the filter is installed,
:func:`check_filter_safety` re-runs consequence prediction *with the
filter's effect applied*, so that the corrective action itself does not lead
to an inconsistency; if it cannot establish that, the system proceeds as
usual.  :func:`evaluate_violation` does both and returns the vetted filter.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..mc.global_state import GlobalState
from ..properties import SafetyProperty, check_all
from ..mc.search import PredictedViolation, SearchBudget
from ..mc.transition import TransitionSystem
from ..runtime.address import Address
from ..runtime.events import Event, MessageEvent, TimerEvent
from .consequence import consequence_prediction
from .event_filter import EventFilter


def steering_filter(node: Address, path: Sequence[Event]) -> Optional[EventFilter]:
    """The filter for the first event on ``path`` that ``node`` can refuse.

    Steering intervenes as early as possible: at the first message delivery
    or timer at ``node``.  Resets and transport errors are environment
    actions and application calls are the client's, so a path with neither
    kind of handler at ``node`` gives ``None``.
    """
    for event in path:
        if event.node != node:
            continue
        if isinstance(event, MessageEvent):
            return EventFilter(node=node, message_type=event.message.mtype,
                               message_src=event.message.src)
        if isinstance(event, TimerEvent):
            return EventFilter(node=node, timer_name=event.timer)
    return None


def check_filter_safety(
    system: TransitionSystem,
    snapshot_state: GlobalState,
    properties: Sequence[SafetyProperty],
    event_filter: EventFilter,
    *,
    budget: Optional[SearchBudget] = None,
    expected_violations: Sequence[PredictedViolation] = (),
) -> bool:
    """Re-check consequences with the filter's action applied.

    Starting from the snapshot state, consequence prediction is re-run with
    the candidate filter refusing every matching event (a refused message is
    consumed unhandled and the connection with its sender is reset; a
    refused timer only fires later, which the search already explores).
    The filter is considered *unsafe* when this steered search uncovers a
    violation that is neither already present in the snapshot nor among the
    violations the unfiltered run predicted — i.e. when the corrective
    action itself introduces a new inconsistency
    (Section 3.3, "Ensuring Safety of Event Filter Actions").
    """
    budget = budget or SearchBudget(max_states=300, stop_at_first_violation=False)

    ignored = {(v.property_name, v.node)
               for v in check_all(properties, snapshot_state)}
    ignored |= {(v.violation.property_name, v.violation.node)
                for v in expected_violations}
    result = consequence_prediction(system, snapshot_state, properties, budget,
                                    event_filter=event_filter.matches)
    for predicted in result.violations:
        key = (predicted.violation.property_name, predicted.violation.node)
        if key not in ignored:
            return False
    return True


def evaluate_violation(
    node: Address,
    system: TransitionSystem,
    snapshot_state: GlobalState,
    properties: Sequence[SafetyProperty],
    violation: PredictedViolation,
    *,
    safety_budget: Optional[SearchBudget] = None,
    expected_violations: Sequence[PredictedViolation] = (),
) -> Optional[EventFilter]:
    """The vetted filter that steers ``node`` off ``violation``'s path, or
    None when ``node`` has no handler on it or the filter is unsafe."""
    event_filter = steering_filter(node, violation.path)
    if event_filter is None or not check_filter_safety(
            system, snapshot_state, properties, event_filter,
            budget=safety_budget, expected_violations=expected_violations):
        return None
    return event_filter
