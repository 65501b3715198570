"""Execution steering: choosing and vetting corrective actions (Section 3.3).

Given a predicted violation (an event path from the current snapshot to an
inconsistent state), steering picks the earliest point on the path where the
local node can intervene — its own handler invocation — and turns it into an
event filter.  Before installing the filter, CrystalBall re-runs consequence
prediction *with the filter's effect applied* to make sure the corrective
action itself does not lead to an inconsistency; if it cannot establish
that, it leaves the system to proceed as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..mc.global_state import GlobalState
from ..properties import SafetyProperty, check_all
from ..mc.search import PredictedViolation, SearchBudget
from ..mc.transition import TransitionSystem
from ..runtime.address import Address
from ..runtime.events import Event, MessageEvent, TimerEvent
from ..runtime.simulator import FilterAction
from .consequence import consequence_prediction
from .event_filter import EventFilter, derive_filter


@dataclass
class SteeringDecision:
    """Outcome of evaluating one predicted violation for steering."""

    violation: PredictedViolation
    filter: Optional[EventFilter]
    safe: bool
    reason: str

    @property
    def actionable(self) -> bool:
        return self.filter is not None and self.safe


def choose_steering_point(node: Address,
                          violation: PredictedViolation) -> Optional[Event]:
    """Pick the event on the violation path that ``node`` should block.

    Policy (Section 3.3): steer as early as possible, i.e. the first event on
    the path that is a handler invocation on ``node`` which the runtime can
    refuse: a message delivery or a timer.  Resets and transport errors are
    environment actions, and application calls are the client's.
    """
    for event in violation.path:
        if event.node != node:
            continue
        if isinstance(event, (MessageEvent, TimerEvent)):
            return event
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
    the candidate filter's effect applied to every matching event (the
    offending message is consumed unhandled and the connection with its
    sender is reset).  The filter is considered *unsafe* when this steered
    search uncovers a violation that is neither already present in the
    snapshot nor among the violations the unfiltered run predicted — i.e.
    when the corrective action itself introduces a new inconsistency
    (Section 3.3, "Ensuring Safety of Event Filter Actions").
    """
    budget = budget or SearchBudget(max_states=300, stop_at_first_violation=False)

    def steering_hook(event) -> Optional[FilterAction]:
        if event_filter.matches(event):
            return event_filter.decision(event)
        return None

    ignored = {(v.property_name, v.node)
               for v in check_all(properties, snapshot_state)}
    ignored |= {(v.violation.property_name, v.violation.node)
                for v in expected_violations}
    result = consequence_prediction(system, snapshot_state, properties, budget,
                                    event_filter=steering_hook)
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
) -> SteeringDecision:
    """Derive and vet the corrective action for one predicted violation."""
    steering_event = choose_steering_point(node, violation)
    if steering_event is None:
        return SteeringDecision(violation=violation, filter=None, safe=False,
                                reason="no local handler on the violation path")
    event_filter = derive_filter(node, steering_event,
                                 reason=str(violation.violation))
    if event_filter is None:
        return SteeringDecision(violation=violation, filter=None, safe=False,
                                reason="event cannot be filtered")
    safe = check_filter_safety(system, snapshot_state, properties,
                               event_filter, budget=safety_budget,
                               expected_violations=expected_violations)
    reason = "filter deemed safe" if safe else "filter action itself risks inconsistency"
    return SteeringDecision(violation=violation, filter=event_filter,
                            safe=safe, reason=reason)
