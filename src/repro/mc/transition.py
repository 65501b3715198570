"""The transition relation ``;`` of the system model (Figure 4).

:class:`TransitionSystem` knows how to enumerate the events enabled in a
global state (message deliveries, timer firings, application calls, node
resets, transport-error notifications) and how to apply one event to produce
the successor state, by running the handler through the live runtime's own
runner (:func:`~repro.runtime.protocol.run_handler`) on a clone of the node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..runtime.address import Address
from ..runtime.events import (
    AppEvent,
    ConnectionErrorEvent,
    Event,
    MessageEvent,
    ResetEvent,
    TimerEvent,
)
from ..runtime.protocol import Protocol, run_handler
from ..runtime.serialization import freeze
from .global_state import ErrorNotification, GlobalState, NodeLocal


@dataclass(frozen=True)
class TransitionConfig:
    """What the model checker is allowed to explore.

    Parameters
    ----------
    enable_resets:
        Consider silent node resets as internal actions.  Resets are the
        low-probability events behind most of the bugs found in the paper.
    max_resets_per_node:
        Bound on resets per node within one search, to keep the space finite.

    Application calls advertised by ``Protocol.app_calls`` are always
    explored.  Messages addressed to nodes outside the snapshot would be
    redirected to the "dummy node" and never processed (Section 4);
    dropping them is behaviourally equivalent and keeps the state space
    smaller.
    """

    enable_resets: bool = True
    max_resets_per_node: int = 1


class _HandlerRng:
    """``random.Random(0)``, so searches are reproducible, built and seeded
    when a handler first reads it: every transition gets one, few draw."""

    def __getattr__(self, name: str):
        rng = self.__dict__.get("_rng")
        if rng is None:
            rng = self.__dict__["_rng"] = random.Random(0)
        return getattr(rng, name)


class TransitionSystem:
    """Successor-state generator for one protocol."""

    def __init__(self, protocol: Protocol, config: Optional[TransitionConfig] = None) -> None:
        self.protocol = protocol
        self.config = config or TransitionConfig()

    # -- enumeration ----------------------------------------------------------------

    def network_events(self, state: GlobalState) -> list[Event]:
        """Message-handler events enabled in ``state`` (the ``HM`` side)."""
        events: list[Event] = []
        for message in state.inflight:
            if message.dst in state.nodes:
                events.append(MessageEvent(node=message.dst, message=message))
        for notification in state.errors:
            if notification.dst in state.nodes:
                events.append(ConnectionErrorEvent(node=notification.dst,
                                                   peer=notification.peer))
        return events

    def internal_events(self, state: GlobalState, addr: Address) -> list[Event]:
        """Internal-action events enabled at node ``addr`` (the ``HA`` side)."""
        local = state.nodes[addr]
        events: list[Event] = [TimerEvent(node=addr, timer=name)
                               for name in sorted(local.timers)]
        for call, payload in self.protocol.app_calls(local.state):
            events.append(AppEvent(node=addr, call=call, payload=dict(payload)))
        if self.reset_enabled(state, addr):
            events.append(ResetEvent(node=addr))
        return events

    def reset_enabled(self, state: GlobalState, addr: Address) -> bool:
        """Whether a reset of node ``addr`` is among its internal actions."""
        return (self.config.enable_resets
                and state.reset_count(addr) < self.config.max_resets_per_node)

    def enabled_events(self, state: GlobalState) -> list[Event]:
        """All events enabled in ``state`` (used by the exhaustive baseline)."""
        events = self.network_events(state)
        for addr in sorted(state.nodes):
            events.extend(self.internal_events(state, addr))
        return events

    # -- application ---------------------------------------------------------------------

    def apply(self, state: GlobalState, event: Event,
              memo: Optional[dict] = None) -> GlobalState:
        """Return the successor of ``state`` after executing ``event``.

        The handler runs through the simulator's runner,
        :func:`~repro.runtime.protocol.run_handler`, on a clone of the
        acting node's state, at ``now=0.0`` with a fresh ``Random(0)``.

        ``memo`` is a search's transition memo (:class:`~repro.mc.search.
        Explorer` owns one per search).  With it, the handler runs once per
        ``(acting node's NodeLocal object, event)``, and the entry holds the
        runner's :class:`~repro.runtime.protocol.Effects` and the new
        ``NodeLocal`` built from them: a handler is a pure function of its
        input object and the event, so a hit is what a fresh run on a clone
        would return, the ``NodeLocal``'s caches included.  The key
        is the wrapper's ``id`` plus the message object's ``id``, the timer
        name, the failed peer, the call and its payload, or the reset; an
        entry keeps its key objects alive, so no ``id`` is reused while it
        is stored.  What depends on the rest of the global state (which
        sends and RSTs reach a snapshot node, a reset's error notifications,
        the in-flight, error and reset bookkeeping) is worked out per call.
        Without ``memo`` (replay, the immediate safety check, random walks)
        every call runs the handler.
        """
        addr = event.node
        consumed_message = consumed_error = None
        reset_errors: list[ErrorNotification] = []
        # Memo keys of the five kinds never collide: a message key is an
        # int, a timer's a str, a peer's an Address, a call's a tuple, a
        # reset's None.
        if isinstance(event, MessageEvent):
            key, consumed_message = id(event.message), event.message
        elif isinstance(event, ConnectionErrorEvent):
            key = event.peer
            consumed_error = ErrorNotification(dst=addr, peer=event.peer)
        elif isinstance(event, TimerEvent):
            key = event.timer
        elif isinstance(event, AppEvent):
            key = (event.call, freeze(event.payload))
        elif isinstance(event, ResetEvent):
            key, reset_errors = None, self._reset_errors(state, addr)
        else:
            raise TypeError(f"unknown event {event!r}")
        local = state.nodes[addr]
        entry = None if memo is None else memo.get((id(local), key))
        if entry is None:
            effects = run_handler(self.protocol, addr, local.state.clone(),
                                  local.timers, event, now=0.0,
                                  rng=_HandlerRng())
            entry = (local, event, effects,
                     NodeLocal(state=effects.state, timers=effects.timers))
            if memo is not None:
                memo[id(local), key] = entry
        _, _, effects, after = entry
        raised = [ErrorNotification(dst=peer, peer=addr)
                  for peer in effects.closed if peer in state.nodes]
        return state.successor(
            addr, after,
            consumed_message=consumed_message,
            sent=[m for m in effects.sent if m.dst in state.nodes],
            consumed_error=consumed_error,
            raised=raised + reset_errors,
            reset=addr if isinstance(event, ResetEvent) else None)

    def apply_filtered(self, state: GlobalState, event: MessageEvent) -> GlobalState:
        """Successor when an event filter refuses the message ``event``.

        Used to check the safety of candidate steering actions: the offending
        message is consumed without running its handler and the connection
        with the sender is torn down, which the sender observes as a
        transport error (Section 3.3, "Choice of Corrective Actions").
        """
        message = event.message
        raised = ()
        if message.src in state.nodes:
            raised = (ErrorNotification(dst=message.src, peer=event.node),)
        return state.successor(consumed_message=message, raised=raised)

    # -- helpers ---------------------------------------------------------------------------

    def _reset_errors(self, state: GlobalState,
                      addr: Address) -> list[ErrorNotification]:
        # Peers holding a TCP connection to the resetting node may observe a
        # RST.  The model checker does not track connections explicitly; it
        # conservatively enqueues an error notification for every snapshot
        # node that lists the resetting node as a neighbour.  Whether the
        # notification is delivered before other events (or at all within the
        # search horizon) is decided by the search itself, which covers both
        # the "RST received" and the "RST lost" scenarios of Figure 2.
        old_neighbors = set(self.protocol.neighbors(state.nodes[addr].state))
        errors = [ErrorNotification(dst=other, peer=addr)
                  for other, local in state.nodes.items()
                  if other != addr
                  and addr in self.protocol.neighbors(local.state)]
        # The rebooted node's former peers hold half-open connections to its
        # old incarnation; whenever one of them is eventually used, the error
        # surfaces at the rebooted node too (this is the transport error node
        # C observes in the Chord scenario of Figure 10).
        errors.extend(ErrorNotification(dst=addr, peer=former)
                      for former in sorted(old_neighbors)
                      if former in state.nodes and former != addr)
        return errors
