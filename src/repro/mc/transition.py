"""The transition relation ``;`` of the system model (Figure 4).

:class:`TransitionSystem` knows how to enumerate the events enabled in a
global state (message deliveries, timer firings, application calls, node
resets, transport-error notifications) and how to apply one event to produce
the successor state, by executing the *same protocol handler code* the live
runtime executes.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Optional, Sequence

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
from ..runtime.serialization import freeze
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


class _HandlerRng:
    """``random.Random(HANDLER_RNG_SEED)``, built and seeded when a handler
    first reads it: every transition gets a context, few handlers draw."""

    def __getattr__(self, name: str):
        rng = self.__dict__.get("_rng")
        if rng is None:
            rng = self.__dict__["_rng"] = random.Random(HANDLER_RNG_SEED)
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

    def apply(self, state: GlobalState, event: Event,
              memo: Optional[dict] = None) -> GlobalState:
        """Return the successor of ``state`` after executing ``event``.

        ``memo`` is a search's transition memo (:class:`~repro.mc.search.
        Explorer` owns one per search).  With it, the handler runs once per
        ``(acting node's NodeLocal object, event)``: a handler is a pure
        function of its input object and the event (``now=0.0``, a fresh
        ``Random(HANDLER_RNG_SEED)``, protocols hold only config), so a
        hit returns what a fresh run on a clone of the same object would —
        the same new ``NodeLocal`` (signature and size caches included),
        the same sent messages in the same order, the same closed
        connections.  The key is the wrapper's ``id`` plus the message
        object's ``id``, the timer name, the failed peer, the call and its
        payload, or the reset; an entry keeps its key objects alive, so no
        ``id`` is reused while it is stored.  What depends on the rest of
        the global state (which sends and RSTs reach a snapshot node, a
        reset's error notifications, the in-flight, error and reset
        bookkeeping) is worked out per call.  Without ``memo`` (replay, the
        immediate safety check, random walks) every call runs the handler.
        """
        if isinstance(event, MessageEvent):
            return self._run_handler(state, event, memo, id(event.message),
                                     consumed_message=event.message)
        if isinstance(event, ConnectionErrorEvent):
            notification = ErrorNotification(dst=event.node, peer=event.peer)
            return self._run_handler(state, event, memo, event.peer,
                                     consumed_error=notification)
        if isinstance(event, TimerEvent):
            return self._run_handler(state, event, memo, event.timer)
        if isinstance(event, AppEvent):
            return self._run_handler(state, event, memo,
                                     (event.call, freeze(event.payload)))
        if isinstance(event, ResetEvent):
            return self._apply_reset(state, event, memo)
        raise TypeError(f"unknown event {event!r}")

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

    def _run_handler(self, state: GlobalState, event: Event,
                     memo: Optional[dict], key: Hashable, *,
                     consumed_message: Optional[Message] = None,
                     consumed_error: Optional[ErrorNotification] = None,
                     reset_errors: Sequence[ErrorNotification] = ()) -> GlobalState:
        addr = event.node
        local = state.nodes[addr]
        if memo is None:
            _, _, after, sent, closed = self._handle(local, event)
        else:
            # Keys of the five kinds never collide: a message key is an int,
            # a timer's a str, a peer's an Address, a call's a tuple, a
            # reset's None.
            entry = memo.get((id(local), key))
            if entry is None:
                entry = memo[id(local), key] = self._handle(local, event)
            _, _, after, sent, closed = entry
        raised = [ErrorNotification(dst=peer, peer=addr)
                  for peer in closed if peer in state.nodes]
        raised.extend(reset_errors)
        return state.successor(
            addr, after,
            consumed_message=consumed_message,
            sent=[m for m in sent if m.dst in state.nodes],
            consumed_error=consumed_error,
            raised=raised,
            reset=addr if isinstance(event, ResetEvent) else None)

    def _handle(self, local: NodeLocal, event: Event) -> tuple:
        """Run the handler of ``event`` on a clone of ``local``: ``(local,
        event, the new NodeLocal, the sent messages, the closed
        connections)``, the first two kept so a memo entry holds its key
        objects alive."""
        ctx = HandlerContext(self_addr=event.node, now=0.0, rng=_HandlerRng())
        new_state = self.protocol.execute(ctx, local.state.clone(), event)
        timers = local.timers
        if isinstance(event, TimerEvent):
            timers = timers - {event.timer}
        elif isinstance(event, ResetEvent):
            timers = frozenset()
        after = NodeLocal(state=new_state, timers=ctx.armed_timers(timers))
        return (local, event, after, tuple(ctx.sent),
                tuple(ctx.closed_connections))

    def _apply_reset(self, state: GlobalState, event: ResetEvent,
                     memo: Optional[dict]) -> GlobalState:
        addr = event.node
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
        return self._run_handler(state, event, memo, None, reset_errors=errors)
