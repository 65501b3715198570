"""Protocol (service) abstraction — the Mace-service equivalent.

A protocol is a state machine: per-node local state plus handlers for
messages, timers, application calls, node resets and transport errors
(Figure 4's ``HM`` and ``HA``).  The same handler code is executed by the
live runtime, by consequence prediction, and by the immediate safety check.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping, Sequence

from .address import Address
from .context import HandlerContext
from .events import (
    AppEvent,
    ConnectionErrorEvent,
    Event,
    MessageEvent,
    ResetEvent,
    TimerEvent,
)
from .messages import Message
from .state import NodeState


class Protocol(abc.ABC):
    """Base class for distributed services under test.

    Subclasses implement the handler methods; each handler receives the
    execution context, the node's mutable state, and the event payload, and
    mutates the state in place while emitting messages/timer operations
    through the context.
    """

    #: Human-readable service name ("RandTree", "Chord", ...).
    name: str = "protocol"

    # -- state construction ----------------------------------------------------

    @abc.abstractmethod
    def initial_state(self, addr: Address) -> NodeState:
        """Fresh local state for a node that just booted (or reset)."""

    def on_start(self, ctx: HandlerContext, state: NodeState) -> None:
        """Called once when the node (re)starts; schedule initial timers here."""

    def reset_state(self, addr: Address, old_state: NodeState) -> NodeState:
        """State of a node immediately after a silent reset.

        The default wipes everything (volatile state is lost).  Protocols
        that keep data on stable storage (e.g. a Paxos acceptor persisting
        its promises) override this to carry the persisted fields over from
        ``old_state`` — which is exactly the behaviour whose absence
        constitutes the paper's injected Paxos ``bug2``.
        """
        return self.initial_state(addr)

    # -- handlers ---------------------------------------------------------------

    @abc.abstractmethod
    def handle_message(self, ctx: HandlerContext, state: NodeState, message: Message) -> None:
        """Process an incoming service message."""

    def handle_timer(self, ctx: HandlerContext, state: NodeState, timer: str) -> None:
        """Process expiry of the named timer."""

    def handle_app(self, ctx: HandlerContext, state: NodeState, call: str,
                   payload: Mapping[str, Any]) -> None:
        """Process an application call (e.g. ``join``, ``download``)."""

    def handle_connection_error(self, ctx: HandlerContext, state: NodeState,
                                peer: Address) -> None:
        """Process a transport error (broken TCP connection) with ``peer``."""

    # -- structure the CrystalBall controller relies on -------------------------

    def neighbors(self, state: NodeState) -> list[Address]:
        """The node's snapshot neighbourhood (Section 3.1).

        Default implementation returns an empty list; protocols override it
        to expose parent/children/successors/peers.
        """
        return []

    def app_calls(self, state: NodeState) -> Sequence[tuple[str, Mapping[str, Any]]]:
        """Application calls the model checker may consider at ``state``.

        These correspond to the "application calls" part of the paper's
        internal-action set ``A``.  Default: none.
        """
        return []

    # -- generic event dispatch --------------------------------------------------

    def execute(self, ctx: HandlerContext, state: NodeState, event: Event) -> NodeState:
        """Dispatch ``event`` to the appropriate handler.

        Returns the state object that should be the node's state after the
        event (for :class:`ResetEvent` this is a fresh initial state, for
        everything else the same mutated ``state`` object).
        """
        if isinstance(event, MessageEvent):
            self.handle_message(ctx, state, event.message)
            return state
        if isinstance(event, TimerEvent):
            self.handle_timer(ctx, state, event.timer)
            return state
        if isinstance(event, AppEvent):
            self.handle_app(ctx, state, event.call, event.payload)
            return state
        if isinstance(event, ConnectionErrorEvent):
            self.handle_connection_error(ctx, state, event.peer)
            return state
        if isinstance(event, ResetEvent):
            fresh = self.reset_state(event.node, state)
            self.on_start(ctx, fresh)
            return fresh
        raise TypeError(f"unknown event type: {event!r}")

    # -- misc --------------------------------------------------------------------

    def describe(self) -> str:
        return f"<Protocol {self.name}>"
