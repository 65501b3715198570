"""The transition relation ``;`` of the system model (Figure 4).

:class:`TransitionSystem` knows how to enumerate the events enabled in a
global state (message deliveries, timer firings, application calls, node
resets, transport-error notifications) and how to apply one event to produce
the successor state, by executing the *same protocol handler code* the live
runtime executes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from ..runtime.address import Address
from ..runtime.context import HandlerContext
from ..runtime.events import (
    AppEvent,
    ConnectionErrorEvent,
    Event,
    MessageEvent,
    ResetEvent,
    TimerEvent,
)
from ..runtime.messages import Message
from ..runtime.protocol import Protocol
from .global_state import ErrorNotification, GlobalState, NodeLocal


@dataclass
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


#: Seed of the RNG handed to handlers, so searches are reproducible.
HANDLER_RNG_SEED = 0


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
        if (self.config.enable_resets
                and state.reset_count(addr) < self.config.max_resets_per_node):
            events.append(ResetEvent(node=addr))
        return events

    def enabled_events(self, state: GlobalState) -> list[Event]:
        """All events enabled in ``state`` (used by the exhaustive baseline)."""
        events = self.network_events(state)
        for addr in sorted(state.nodes):
            events.extend(self.internal_events(state, addr))
        return events

    # -- application ---------------------------------------------------------------------

    def apply(self, state: GlobalState, event: Event) -> GlobalState:
        """Return the successor of ``state`` after executing ``event``."""
        if isinstance(event, MessageEvent):
            return self._apply_message(state, event)
        if isinstance(event, ConnectionErrorEvent):
            return self._apply_connection_error(state, event)
        if isinstance(event, TimerEvent):
            return self._apply_timer(state, event)
        if isinstance(event, AppEvent):
            return self._apply_app(state, event)
        if isinstance(event, ResetEvent):
            return self._apply_reset(state, event)
        raise TypeError(f"unknown event {event!r}")

    def apply_filtered(self, state: GlobalState, event: Event, *,
                       reset_connection: bool = True) -> GlobalState:
        """Successor when an event filter drops ``event`` instead of handling it.

        Used to check the safety of candidate steering actions: the offending
        message is consumed without running its handler and, optionally, the
        connection with the sender is torn down, which the sender observes as
        a transport error (Section 3.3, "Choice of Corrective Actions").
        """
        if isinstance(event, MessageEvent):
            inflight = _remove_one(state.inflight, event.message)
            errors = state.errors
            message = event.message
            if reset_connection and message.src in state.nodes:
                errors = errors + (ErrorNotification(dst=message.src, peer=event.node),)
            return replace(state, inflight=inflight, errors=errors)
        if isinstance(event, TimerEvent):
            # A delayed timer is simply re-armed; the state does not change.
            return state
        return state

    # -- helpers ---------------------------------------------------------------------------

    def _context(self, addr: Address) -> HandlerContext:
        return HandlerContext(self_addr=addr, now=0.0,
                              rng=random.Random(HANDLER_RNG_SEED))

    def _run_handler(
        self,
        state: GlobalState,
        addr: Address,
        event: Event,
        *,
        consumed_message: Optional[Message] = None,
        consumed_error: Optional[ErrorNotification] = None,
        fired_timer: Optional[str] = None,
    ) -> GlobalState:
        local = state.nodes[addr]
        working = local.state.clone()
        ctx = self._context(addr)
        new_state = self.protocol.execute(ctx, working, event)

        timers = local.timers
        if fired_timer is not None:
            timers = timers - {fired_timer}
        if isinstance(event, ResetEvent):
            timers = frozenset()
        timers = ctx.armed_timers(timers)

        inflight = state.inflight
        if consumed_message is not None:
            inflight = _remove_one(inflight, consumed_message)
        new_messages = tuple(m for m in ctx.sent if m.dst in state.nodes)
        inflight = inflight + new_messages

        errors = state.errors
        if consumed_error is not None:
            errors = _remove_one(errors, consumed_error)
        for peer in ctx.closed_connections:
            if peer in state.nodes:
                errors = errors + (ErrorNotification(dst=peer, peer=addr),)

        next_state = replace(
            state,
            nodes={**state.nodes, addr: NodeLocal(state=new_state, timers=timers)},
            inflight=inflight,
            errors=errors,
        )
        return next_state

    def _apply_message(self, state: GlobalState, event: MessageEvent) -> GlobalState:
        return self._run_handler(state, event.node, event,
                                 consumed_message=event.message)

    def _apply_connection_error(self, state: GlobalState,
                                event: ConnectionErrorEvent) -> GlobalState:
        notification = ErrorNotification(dst=event.node, peer=event.peer)
        return self._run_handler(state, event.node, event,
                                 consumed_error=notification)

    def _apply_timer(self, state: GlobalState, event: TimerEvent) -> GlobalState:
        return self._run_handler(state, event.node, event, fired_timer=event.timer)

    def _apply_app(self, state: GlobalState, event: AppEvent) -> GlobalState:
        return self._run_handler(state, event.node, event)

    def _apply_reset(self, state: GlobalState, event: ResetEvent) -> GlobalState:
        addr = event.node
        # Peers holding a TCP connection to the resetting node may observe a
        # RST.  The model checker does not track connections explicitly; it
        # conservatively enqueues an error notification for every snapshot
        # node that lists the resetting node as a neighbour.  Whether the
        # notification is delivered before other events (or at all within the
        # search horizon) is decided by the search itself, which covers both
        # the "RST received" and the "RST lost" scenarios of Figure 2.
        old_neighbors = set(self.protocol.neighbors(state.nodes[addr].state))
        next_state = self._run_handler(state, addr, event)
        errors = next_state.errors
        for other, local in state.nodes.items():
            if other == addr:
                continue
            if addr in self.protocol.neighbors(local.state):
                errors = errors + (ErrorNotification(dst=other, peer=addr),)
        # The rebooted node's former peers hold half-open connections to its
        # old incarnation; whenever one of them is eventually used, the error
        # surfaces at the rebooted node too (this is the transport error node
        # C observes in the Chord scenario of Figure 10).
        for former in sorted(old_neighbors):
            if former in state.nodes and former != addr:
                errors = errors + (ErrorNotification(dst=addr, peer=former),)
        return replace(next_state, errors=errors).with_reset(addr)


def _remove_one(items: tuple, target) -> tuple:
    """Remove a single occurrence of ``target`` from ``items``."""
    result = list(items)
    try:
        result.remove(target)
    except ValueError:
        pass
    return tuple(result)
