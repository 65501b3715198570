"""Replay of previously discovered erroneous paths (Section 4).

Event filters are removed after every model-checking run; to decide quickly
whether a previously identified error path can still lead to a violation
from the *new* snapshot, CrystalBall replays the path before running a fresh
search.  Strictly replaying every recorded event would be incorrect (old
messages may be inconsistent with the new state), so only timer and
application events are replayed; messages are regenerated by the service
handlers and followed causally.  A path that reproduces comes back as the
same :class:`~repro.mc.search.PredictedViolation` record the search returns,
so steering treats both alike.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..mc.global_state import GlobalState
from ..mc.search import PredictedViolation
from ..properties import (SafetyProperty, derive_all, listed_all,
                          safety_properties)
from ..mc.transition import TransitionSystem
from ..runtime.events import Event, MessageEvent, TimerEvent
from ..runtime.events import ConnectionErrorEvent

#: Regenerated messages followed after each replayed event.
MAX_CASCADE = 64


def replay_error_path(
    system: TransitionSystem,
    snapshot_state: GlobalState,
    path: Sequence[Event],
    properties: Sequence[SafetyProperty],
) -> Optional[PredictedViolation]:
    """Replay ``path`` from ``snapshot_state``; the violation it reproduces,
    or None.

    Only internal events (timers, application calls, resets) from the stored
    path are replayed verbatim; after each one, every message the handlers
    generated is delivered in FIFO order (following the causality of the
    newly generated messages), and the safety properties are checked after
    every step: each step's verdicts are derived from the previous step's,
    with the replayed event's node as the change, and only violations the
    snapshot did not already have count.  The record carries ``path`` whole
    and the first new violation of the state where replay stopped.
    """
    properties = safety_properties(properties)
    verdicts = derive_all(properties, None, snapshot_state, ())
    pre_existing = {(v.property_name, v.node, v.detail)
                    for v in listed_all(properties, verdicts, snapshot_state)}
    state = snapshot_state

    def advance(event: Event) -> Optional[PredictedViolation]:
        """Apply ``event``; the first violation it adds to the snapshot's."""
        nonlocal state, verdicts
        state = system.apply(state, event)
        verdicts = derive_all(properties, verdicts, state, (event.node,))
        for violation in listed_all(properties, verdicts, state):
            if (violation.property_name, violation.node,
                    violation.detail) not in pre_existing:
                return PredictedViolation(violation=violation, path=tuple(path),
                                          state_hash=state.state_hash())
        return None

    for event in path:
        if isinstance(event, MessageEvent):
            continue  # regenerated by handlers, not replayed verbatim
        if event.node not in state.nodes:
            continue
        if isinstance(event, TimerEvent) and event.timer not in state.nodes[event.node].timers:
            continue
        if isinstance(event, ConnectionErrorEvent):
            # Connection errors are only replayed when the corresponding
            # notification exists (e.g. regenerated by a replayed reset).
            if not any(e.dst == event.node and e.peer == event.peer
                       for e in state.errors):
                continue
        reproduced = advance(event)
        if reproduced is not None:
            return reproduced

        # Follow the causality of the regenerated messages (error
        # notifications are left pending: whether they arrive in time is one
        # of the interleavings the original search explored, and replaying
        # them eagerly would mask the error path).
        for _ in range(MAX_CASCADE):
            network_events = [e for e in system.network_events(state)
                              if isinstance(e, MessageEvent)]
            if not network_events:
                break
            reproduced = advance(network_events[0])
            if reproduced is not None:
                return reproduced
    return None
