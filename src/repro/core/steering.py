"""Execution steering: from a predicted violation to a vetted filter
(Section 3.3).

A :class:`~repro.mc.search.PredictedViolation` — from this round's search or
a replayed error path — carries the event path from the snapshot to the
inconsistent state.  :func:`steering_filter` turns the earliest point on
that path where the local node can intervene (its own message or timer
handler) into an event filter.  Before the filter is installed,
:func:`check_filter_safety` re-runs consequence prediction in a model where
the filter refuses every matching message, so that the corrective action
itself does not lead to an inconsistency; if it cannot establish that, the
system proceeds as usual.  What a refusal does in the model is decided here
alone: the search core knows no filters.
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


class _Refusing(TransitionSystem):
    """The model with one message filter installed: a refused message is
    consumed unhandled and the connection with its sender is reset
    (:meth:`TransitionSystem.apply_filtered`); every other event, memo
    included, is applied as usual."""

    def __init__(self, system: TransitionSystem, event_filter: EventFilter) -> None:
        super().__init__(system.protocol, system.config)
        self.event_filter = event_filter

    def apply(self, state: GlobalState, event: Event,
              memo: Optional[dict] = None) -> GlobalState:
        if self.event_filter.matches(event):
            return self.apply_filtered(state, event)
        return super().apply(state, event, memo)


def check_filter_safety(
    system: TransitionSystem,
    snapshot_state: GlobalState,
    properties: Sequence[SafetyProperty],
    event_filter: EventFilter,
    *,
    budget: SearchBudget,
    expected_violations: Sequence[PredictedViolation] = (),
) -> bool:
    """Re-check consequences with the filter's action applied.

    Starting from the snapshot state, consequence prediction is re-run
    within ``budget`` in the model with the candidate message filter
    installed.  The filter is considered *unsafe* when this steered search
    uncovers a violation that is neither already present in the snapshot
    nor among the violations the unfiltered run predicted — i.e. when the
    corrective action itself introduces a new inconsistency (Section 3.3,
    "Ensuring Safety of Event Filter Actions").

    A timer filter passes without a search.  A refused timer only fires
    later, which the search already explores, so the model applies it as
    usual and its re-check would be the unfiltered prediction again.  Under
    a budget the round's own search covers, that is a level-order prefix of
    the search that predicted ``expected_violations`` and reports nothing
    new; where it reaches further, whatever it added would be a violation
    of the unfiltered model, not a consequence of the filter.
    """
    if event_filter.message_type is None:
        return True
    ignored = {(v.property_name, v.node)
               for v in check_all(properties, snapshot_state)}
    ignored |= {(v.violation.property_name, v.violation.node)
                for v in expected_violations}
    result = consequence_prediction(_Refusing(system, event_filter),
                                    snapshot_state, properties, budget)
    for predicted in result.violations:
        key = (predicted.violation.property_name, predicted.violation.node)
        if key not in ignored:
            return False
    return True
