"""Protocol (service) abstraction — the Mace-service equivalent.

A protocol is a state machine: per-node local state plus handlers for
messages, timers, application calls, node resets and transport errors
(Figure 4's ``HM`` and ``HA``).  Every handler runs through
:func:`run_handler`: on a live node at the simulator's time with its RNG, or
on a model-checker clone at ``now=0.0`` with ``Random(0)``.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .address import Address
from .context import HandlerContext, TimerOp
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
        """State of a node immediately after a silent reset, or its first
        boot (``old_state`` is then its initial state).

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
        everything else the same mutated ``state`` object).  Hosts call
        :func:`run_handler`, which builds ``ctx`` from their time and RNG.
        """
        if isinstance(event, MessageEvent):
            self.handle_message(ctx, state, event.message)
        elif isinstance(event, TimerEvent):
            self.handle_timer(ctx, state, event.timer)
        elif isinstance(event, AppEvent):
            self.handle_app(ctx, state, event.call, event.payload)
        elif isinstance(event, ConnectionErrorEvent):
            self.handle_connection_error(ctx, state, event.peer)
        elif isinstance(event, ResetEvent):
            state = self.reset_state(event.node, state)
            self.on_start(ctx, state)
        else:
            raise TypeError(f"unknown event type: {event!r}")
        return state


@dataclass(slots=True)
class Effects:
    """One handler run: the node's new state and armed timers, the timer
    arms with their delays, the sent messages and the closed peers."""

    state: NodeState
    timers: frozenset[str]
    timer_ops: list[TimerOp]
    sent: list[Message]
    closed: list[Address]


def run_handler(protocol: Protocol, addr: Address, state: NodeState,
                timers: frozenset[str], event: Event, *, now: float,
                rng: random.Random) -> Effects:
    """Run ``event``'s handler on node ``addr``'s ``state`` (mutated in
    place; a reset replaces it) at the host's ``now`` with its ``rng``.  Of
    the armed ``timers`` a fired one is consumed and a reset clears all,
    before the handler's arms are added."""
    ctx = HandlerContext(addr, now, rng)
    state = protocol.execute(ctx, state, event)
    if isinstance(event, TimerEvent):
        timers = timers - {event.timer}
    elif isinstance(event, ResetEvent):
        timers = frozenset()
    if ctx.timer_ops:
        timers = timers.union([op.name for op in ctx.timer_ops])
    return Effects(state, timers, ctx.timer_ops, ctx.sent,
                   ctx.closed_connections)
