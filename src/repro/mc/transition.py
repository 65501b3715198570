"""The transition relation ``;`` of the system model (Figure 4).

:class:`TransitionSystem` knows how to enumerate the events enabled in a
global state (message deliveries, timer firings, application calls, node
resets, transport-error notifications) and what one event changes, a
:class:`~repro.mc.global_state.Step`, by running the handler through the
live runtime's own runner (:func:`~repro.runtime.protocol.run_handler`) on a
clone of the node.  A search remembers its handler runs in a :class:`Memo`.
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
from .global_state import ErrorNotification, GlobalState, NodeLocal, Step


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


class Memo:
    """One search's handler runs, and the node states they produced.

    ``steps`` is the transition memo: ``(id(input NodeLocal), event key)``
    -> ``(the input, the Step)`` (see :meth:`TransitionSystem.step`).
    ``nodes`` interns node states by content: ``(address, pickled state,
    timers)`` -> the one ``NodeLocal`` of the search with that content; it
    holds every handler output and the start state's nodes.  Equal pickle
    bytes mean equal field values with the same dict and set iteration
    order, so a clone of either wrapper is the same handler input and every
    handler run, hash, size and property verdict of one is the other's;
    states whose signatures are equal but whose orders differ stay apart,
    and a state that does not pickle is not interned.  The pickle is taken
    after the wrapper is hashed, as its size always was; an address's
    cached frozen form rides in it, so a key can miss an equal state but
    never match a different one.  ``neighbor_sets`` keeps each wrapper's
    neighbour set, a pure function of its state.
    """

    def __init__(self) -> None:
        self.steps: dict = {}
        self.nodes: dict = {}
        #: ``id(NodeLocal)`` -> (the wrapper, its neighbour set)
        self.neighbor_sets: dict[int, tuple] = {}

    def clear(self) -> None:
        self.steps.clear()
        self.nodes.clear()
        self.neighbor_sets.clear()

    def intern(self, addr: Address, local: NodeLocal) -> NodeLocal:
        """The search's one wrapper with ``local``'s content at ``addr``:
        ``local`` itself when it is the first, or does not pickle.  Hash
        ``local`` first."""
        blob = local.pickled()
        if blob is None:
            return local
        return self.nodes.setdefault((addr, blob, local.timers), local)

    def neighbors(self, protocol: Protocol,
                  local: NodeLocal) -> frozenset[Address]:
        """``protocol.neighbors`` of a node state, once per wrapper."""
        entry = self.neighbor_sets.get(id(local))
        if entry is None:
            entry = self.neighbor_sets[id(local)] = (
                local, frozenset(protocol.neighbors(local.state)))
        return entry[1]


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

    def step(self, state: GlobalState, event: Event,
             memo: Optional[Memo] = None) -> Step:
        """What executing ``event`` in ``state`` changes; the successor is
        ``state.after(step)``.

        The handler runs through the simulator's runner,
        :func:`~repro.runtime.protocol.run_handler`, on a clone of the
        acting node's state, at ``now=0.0`` with a fresh ``Random(0)``.
        Sends and RSTs that reach no snapshot node are dropped.

        ``memo`` is a search's :class:`Memo` (:class:`~repro.mc.search.
        Explorer` owns one per search).  With it, the handler runs once per
        ``(acting node's NodeLocal object, event)``: a handler is a pure
        function of its input object and the event, so a hit is what a
        fresh run on a clone would return.  The stored step carries what is
        fixed within a search: the interned output wrapper, the sent
        messages and raised errors (the snapshot's nodes never change) and
        every digest :meth:`GlobalState.splice` needs.  The
        key is the wrapper's ``id`` plus the message object's ``id``, the
        timer name, the failed peer, the call and its payload, or the
        reset; an entry keeps its input alive, so no ``id`` is reused while
        it is stored.  A reset's error notifications depend on the other
        nodes and are added per call, from the memo's neighbour sets.
        """
        addr = event.node
        message = error = None
        # Memo keys of the five kinds never collide: a message key is an
        # int, a timer's a str, a peer's an Address, a call's a tuple, a
        # reset's None.
        if isinstance(event, MessageEvent):
            key, message = id(event.message), event.message
        elif isinstance(event, ConnectionErrorEvent):
            key = event.peer
            error = ErrorNotification(dst=addr, peer=event.peer)
        elif isinstance(event, TimerEvent):
            key = event.timer
        elif isinstance(event, AppEvent):
            key = (event.call, freeze(event.payload))
        elif isinstance(event, ResetEvent):
            key = None
        else:
            raise TypeError(f"unknown event {event!r}")
        local = state.nodes[addr]
        entry = None if memo is None else memo.steps.get((id(local), key))
        if entry is None:
            effects = run_handler(self.protocol, addr, local.state.clone(),
                                  local.timers, event, now=0.0,
                                  rng=_HandlerRng())
            nodes = state.nodes
            step = Step(
                node=addr,
                local=NodeLocal(state=effects.state, timers=effects.timers),
                message=message, error=error,
                sent=tuple(m for m in effects.sent if m.dst in nodes),
                raised=tuple(ErrorNotification(dst=peer, peer=addr)
                             for peer in effects.closed if peer in nodes),
                reset=addr if key is None else None)
            if memo is not None:
                # Hashed (the digests), then pickled for the intern key.
                digests = step.digest(state)
                step = step._replace(local=memo.intern(addr, step.local),
                                     digests=digests)
                memo.steps[id(local), key] = local, step
        else:
            step = entry[1]
        if key is None:
            step = step.raising(self._reset_errors(state, addr, memo))
        return step

    def apply(self, state: GlobalState, event: Event) -> GlobalState:
        """The successor of ``state`` after executing ``event``, built
        without a memo (replay, the immediate safety check, random walks)."""
        return state.after(self.step(state, event))

    def filtered_step(self, state: GlobalState, event: MessageEvent) -> Step:
        """What a refused message event changes.

        Used to check the safety of candidate steering actions: the offending
        message is consumed without running its handler and the connection
        with the sender is torn down, which the sender observes as a
        transport error (Section 3.3, "Choice of Corrective Actions").
        """
        message = event.message
        raised = ()
        if message.src in state.nodes:
            raised = (ErrorNotification(dst=message.src, peer=event.node),)
        return Step(message=message, raised=raised)

    def apply_filtered(self, state: GlobalState, event: MessageEvent) -> GlobalState:
        """Successor when an event filter refuses the message ``event``."""
        return state.after(self.filtered_step(state, event))

    # -- helpers ---------------------------------------------------------------------------

    def _reset_errors(self, state: GlobalState, addr: Address,
                      memo: Optional[Memo]) -> tuple[ErrorNotification, ...]:
        # Peers holding a TCP connection to the resetting node may observe a
        # RST.  The model checker does not track connections explicitly; it
        # conservatively enqueues an error notification for every snapshot
        # node that lists the resetting node as a neighbour.  Whether the
        # notification is delivered before other events (or at all within the
        # search horizon) is decided by the search itself, which covers both
        # the "RST received" and the "RST lost" scenarios of Figure 2.
        def neighbors(local: NodeLocal):
            if memo is None:
                return self.protocol.neighbors(local.state)
            return memo.neighbors(self.protocol, local)

        old_neighbors = set(neighbors(state.nodes[addr]))
        errors = [ErrorNotification(dst=other, peer=addr)
                  for other, local in state.nodes.items()
                  if other != addr and addr in neighbors(local)]
        # The rebooted node's former peers hold half-open connections to its
        # old incarnation; whenever one of them is eventually used, the error
        # surfaces at the rebooted node too (this is the transport error node
        # C observes in the Chord scenario of Figure 10).
        errors.extend(ErrorNotification(dst=addr, peer=former)
                      for former in sorted(old_neighbors)
                      if former in state.nodes and former != addr)
        return tuple(errors)
