"""Replay of previously discovered erroneous paths (Section 4).

Event filters are removed after every model-checking run; to decide quickly
whether a previously identified error path can still lead to a violation
from the *new* snapshot, CrystalBall replays the path before running a fresh
search.  Strictly replaying every recorded event would be incorrect (old
messages may be inconsistent with the new state), so only timer and
application events are replayed; messages are regenerated by the service
handlers and followed causally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..mc.global_state import GlobalState
from ..properties import (PropertyViolation, SafetyProperty, derive_all,
                          listed_all, safety_properties)
from ..mc.transition import TransitionSystem
from ..runtime.events import Event, MessageEvent, TimerEvent
from ..runtime.events import ConnectionErrorEvent

#: Regenerated messages followed after each replayed event.
MAX_CASCADE = 64


@dataclass
class ReplayResult:
    """Outcome of replaying one stored error path on a new snapshot."""

    reproduced: bool
    violations: list[PropertyViolation]
    steps_executed: int
    final_state: GlobalState


def replay_error_path(
    system: TransitionSystem,
    snapshot_state: GlobalState,
    path: Sequence[Event],
    properties: Sequence[SafetyProperty],
) -> ReplayResult:
    """Replay ``path`` from ``snapshot_state``.

    Only internal events (timers, application calls, resets) from the stored
    path are replayed verbatim; after each one, every message the handlers
    generated is delivered in FIFO order (following the causality of the
    newly generated messages), and the safety properties are checked after
    every step: each step's verdicts are derived from the previous step's,
    with the replayed event's node as the change, and only violations the
    snapshot did not already have count.
    """
    properties = safety_properties(properties)
    verdicts = derive_all(properties, None, snapshot_state, ())
    pre_existing = {(v.property_name, v.node, v.detail)
                    for v in listed_all(properties, verdicts, snapshot_state)}
    state = snapshot_state
    steps = 0

    def advance(event: Event) -> list[PropertyViolation]:
        """Apply ``event``; the violations it adds to the snapshot's."""
        nonlocal state, steps, verdicts
        state = system.apply(state, event)
        steps += 1
        verdicts = derive_all(properties, verdicts, state, (event.node,))
        return [v for v in listed_all(properties, verdicts, state)
                if (v.property_name, v.node, v.detail) not in pre_existing]

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
        violations = advance(event)
        if violations:
            return ReplayResult(reproduced=True, violations=violations,
                                steps_executed=steps, final_state=state)

        # Follow the causality of the regenerated messages (error
        # notifications are left pending: whether they arrive in time is one
        # of the interleavings the original search explored, and replaying
        # them eagerly would mask the error path).
        for _ in range(MAX_CASCADE):
            network_events = [e for e in system.network_events(state)
                              if isinstance(e, MessageEvent)]
            if not network_events:
                break
            violations = advance(network_events[0])
            if violations:
                return ReplayResult(reproduced=True, violations=violations,
                                    steps_executed=steps, final_state=state)

    return ReplayResult(reproduced=False, violations=[],
                        steps_executed=steps, final_state=state)
