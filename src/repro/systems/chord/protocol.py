"""Chord protocol implementation (Section 5.2.2).

The implementation follows the join/stabilize behaviour the paper describes
for the Mace Chord service, *including the two inconsistencies CrystalBall
found*:

``pred_self`` (Figure 10)
    When a node handles an ``UpdatePred`` message while its predecessor is
    unset, it adopts the sender as predecessor even when the sender is the
    node itself, ending up with ``predecessor == self`` while the successor
    list still contains other nodes.
``ordering`` (Figure 11)
    When a node processes a ``GetPredReply`` during stabilization it adds
    the reported successors to its successor list without updating its
    predecessor pointer, violating the ring-ordering constraint.

Both are controlled by ``fix_*`` flags in :class:`ChordConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ...runtime.address import Address
from ...runtime.context import HandlerContext
from ...runtime.messages import Message
from ...runtime.protocol import Protocol
from .state import ChordState, in_interval

FIND_PRED = "FindPred"
FIND_PRED_REPLY = "FindPredReply"
UPDATE_PRED = "UpdatePred"
GET_PRED = "GetPred"
GET_PRED_REPLY = "GetPredReply"
LOOKUP = "Lookup"
LOOKUP_REPLY = "LookupReply"

JOIN_TIMER = "join_retry"
STABILIZE_TIMER = "stabilize"


@dataclass
class ChordConfig:
    """Chord parameters and bug-fix switches."""

    bootstrap: tuple[Address, ...] = ()
    id_bits: int = 16
    successor_list_size: int = 4
    join_retry_period: float = 5.0
    stabilize_period: float = 10.0
    #: Optional explicit id assignment (used to script the paper's
    #: consecutive-placement scenarios); defaults to hashing the address.
    id_map: dict[Address, int] = field(default_factory=dict)

    #: Avoid adopting ourselves as predecessor when the successor list still
    #: contains other nodes (fix for the Figure 10 inconsistency).
    fix_pred_self: bool = False
    #: Update the predecessor pointer when learning new successors during
    #: stabilization (fix for the Figure 11 inconsistency).
    fix_ordering: bool = False


class Chord(Protocol):
    """The Chord distributed hash table service."""

    name = "Chord"

    def __init__(self, config: Optional[ChordConfig] = None) -> None:
        self.config = config or ChordConfig()

    # -- state ------------------------------------------------------------------

    def node_id(self, addr: Address) -> int:
        if addr in self.config.id_map:
            return self.config.id_map[addr]
        return addr.chord_id(self.config.id_bits)

    def initial_state(self, addr: Address) -> ChordState:
        return ChordState(addr=addr,
                          node_id=self.node_id(addr),
                          bootstrap=tuple(self.config.bootstrap),
                          successor_list_size=self.config.successor_list_size)

    def on_start(self, ctx: HandlerContext, state: ChordState) -> None:
        ctx.set_timer(JOIN_TIMER, self.config.join_retry_period)

    def neighbors(self, state: ChordState) -> list[Address]:
        neighbors = set(state.successors)
        if state.predecessor is not None:
            neighbors.add(state.predecessor)
        neighbors.discard(state.addr)
        return sorted(neighbors)

    def app_calls(self, state: ChordState) -> Sequence[tuple[str, Mapping[str, Any]]]:
        if not state.joined:
            return [("join", {})]
        return []

    # -- joining -----------------------------------------------------------------

    def handle_app(self, ctx: HandlerContext, state: ChordState, call: str,
                   payload: Mapping[str, Any]) -> None:
        if call == "join":
            self._try_join(ctx, state)
        elif call == "lookup":
            # The DHT's service operation, driven by the "lookups" workload.
            if state.joined:
                key = int(payload.get("key", 0)) % (1 << self.config.id_bits)
                self._route_lookup(ctx, state, key, state.addr, hops=0)

    def handle_timer(self, ctx: HandlerContext, state: ChordState, timer: str) -> None:
        if timer == JOIN_TIMER:
            if not state.joined:
                self._try_join(ctx, state)
                ctx.set_timer(JOIN_TIMER, self.config.join_retry_period)
        elif timer == STABILIZE_TIMER:
            self._stabilize(ctx, state)

    def _try_join(self, ctx: HandlerContext, state: ChordState) -> None:
        targets = [a for a in state.bootstrap if a != state.addr]
        if not targets:
            # First node: a ring of one.
            state.joined = True
            state.predecessor = state.addr
            state.successors = []
            ctx.set_timer(STABILIZE_TIMER, self.config.stabilize_period)
            return
        ctx.send(targets[0], FIND_PRED,
                 {"origin": state.addr, "origin_id": state.node_id})

    # -- message handlers ---------------------------------------------------------

    def handle_message(self, ctx: HandlerContext, state: ChordState,
                       message: Message) -> None:
        handlers = {
            FIND_PRED: self._on_find_pred,
            FIND_PRED_REPLY: self._on_find_pred_reply,
            UPDATE_PRED: self._on_update_pred,
            GET_PRED: self._on_get_pred,
            GET_PRED_REPLY: self._on_get_pred_reply,
            LOOKUP: self._on_lookup,
        }
        handler = handlers.get(message.mtype)
        if handler is not None:
            handler(ctx, state, message)

    # -- lookups (the service operation under heavy traffic) ----------------------

    def _on_lookup(self, ctx: HandlerContext, state: ChordState,
                   message: Message) -> None:
        if not state.joined:
            return
        self._route_lookup(ctx, state, int(message.get("key", 0)),
                           message.get("origin", message.src),
                           int(message.get("hops", 0)))

    def _route_lookup(self, ctx: HandlerContext, state: ChordState, key: int,
                      origin: Address, hops: int) -> None:
        """Route a key lookup greedily along the successor pointers.

        Deliberately stateless: a million-lookup workload must not change
        any node's checkpointed state (checkpoints stay the same size and
        deep checks stay unaffected by traffic volume).  The ring may be
        inconsistent — that is the point of the system — so routing gives
        up after ``2 * id_bits`` hops instead of looping forever.
        """
        if hops > 2 * self.config.id_bits:
            return
        successor = state.successor()
        succ_id = state.id_of(successor) if successor is not None else None
        if successor is None or succ_id is None or successor == state.addr \
                or in_interval(key, state.node_id, succ_id,
                               bits=self.config.id_bits):
            owner = successor if successor is not None else state.addr
            ctx.send(origin, LOOKUP_REPLY,
                     {"key": key, "owner": owner, "hops": hops})
        else:
            ctx.send(successor, LOOKUP,
                     {"key": key, "origin": origin, "hops": hops + 1})

    def _on_find_pred(self, ctx: HandlerContext, state: ChordState,
                      message: Message) -> None:
        origin: Address = message.get("origin")
        origin_id: int = message.get("origin_id", 0)
        state.remember(origin, origin_id)
        if not state.joined:
            return

        successor = state.successor()
        succ_id = state.id_of(successor) if successor is not None else None
        if successor is None or succ_id is None or origin == successor \
                or successor == state.addr or in_interval(
                    origin_id, state.node_id, succ_id, bits=self.config.id_bits):
            # We are the origin's predecessor: reply with our successor list.
            successor_list = [a for a in ([successor] if successor else [])
                              + state.successors if a is not None]
            ctx.send(origin, FIND_PRED_REPLY,
                     {"successor_list": tuple(dict.fromkeys(successor_list)),
                      "pred_id": state.node_id,
                      "ids": {a: state.id_of(a) or self.node_id(a)
                              for a in dict.fromkeys(successor_list)}})
        else:
            ctx.send(successor, FIND_PRED,
                     {"origin": origin, "origin_id": origin_id})

    def _on_find_pred_reply(self, ctx: HandlerContext, state: ChordState,
                            message: Message) -> None:
        predecessor = message.src
        successor_list = list(message.get("successor_list", ()))
        ids: Mapping[Address, int] = message.get("ids", {})

        state.remember(predecessor, message.get("pred_id", self.node_id(predecessor)))
        for addr in successor_list:
            state.remember(addr, ids.get(addr, self.node_id(addr)))

        state.joined = True
        # (i) set the predecessor to the replying node.
        state.predecessor = predecessor
        # (ii) store the successor list included in the message as-is (the
        # Mace code keeps it verbatim, which is what enables Figure 10).
        state.successors = [a for a in successor_list
                            if a != state.addr or not self.config.fix_pred_self]
        if not state.successors:
            state.successors = [predecessor]
            state.remember(predecessor, message.get("pred_id",
                                                    self.node_id(predecessor)))
        ctx.set_timer(STABILIZE_TIMER, self.config.stabilize_period)

        # (iii) notify our new successor that we are its predecessor.  The
        # Mace implementation sends this even when the successor is the node
        # itself (a deliberate loop-back coding style).
        successor = state.successor()
        if successor is not None:
            ctx.send(successor, UPDATE_PRED, {"pred_id": state.node_id})

    def _on_update_pred(self, ctx: HandlerContext, state: ChordState,
                        message: Message) -> None:
        sender = message.src
        sender_id: int = message.get("pred_id", self.node_id(sender))
        state.remember(sender, sender_id)

        if state.predecessor is None:
            # BUG (Figure 10): the predecessor is adopted unconditionally,
            # even when the sender is the node itself while the successor
            # list still names other nodes.
            if self.config.fix_pred_self and sender == state.addr and any(
                    s != state.addr for s in state.successors):
                return
            state.predecessor = sender
            return

        pred_id = state.id_of(state.predecessor)
        if pred_id is None or in_interval(sender_id, pred_id, state.node_id,
                                          bits=self.config.id_bits):
            state.predecessor = sender

    def _on_get_pred(self, ctx: HandlerContext, state: ChordState,
                     message: Message) -> None:
        pred = state.predecessor
        successor_list = tuple(dict.fromkeys(state.successors))
        ctx.send(message.src, GET_PRED_REPLY,
                 {"pred": pred,
                  "pred_id": state.id_of(pred) if pred is not None else None,
                  "successor_list": successor_list,
                  "ids": {a: state.id_of(a) or self.node_id(a)
                          for a in successor_list}})

    def _on_get_pred_reply(self, ctx: HandlerContext, state: ChordState,
                           message: Message) -> None:
        reported_pred: Optional[Address] = message.get("pred")
        reported_pred_id: Optional[int] = message.get("pred_id")
        successor_list = list(message.get("successor_list", ()))
        ids: Mapping[Address, int] = message.get("ids", {})

        for addr in successor_list:
            state.remember(addr, ids.get(addr, self.node_id(addr)))
        if reported_pred is not None and reported_pred_id is not None:
            state.remember(reported_pred, reported_pred_id)

        # BUG (Figure 11): the node extends its successor list with the
        # reported successors but leaves its predecessor pointer untouched.
        for addr in successor_list:
            state.add_successor(addr)
        if reported_pred is not None and reported_pred != state.addr:
            state.add_successor(reported_pred)

        if self.config.fix_ordering:
            # Paper's correction: update the predecessor after updating the
            # successor list — any newly learnt node whose id falls between
            # the current predecessor and this node is a better predecessor.
            candidates = [a for a in successor_list if a != state.addr]
            if reported_pred is not None and reported_pred != state.addr:
                candidates.append(reported_pred)
            for candidate in candidates:
                candidate_id = state.id_of(candidate)
                if candidate_id is None:
                    continue
                pred_id = (state.id_of(state.predecessor)
                           if state.predecessor is not None else None)
                if state.predecessor is None or pred_id is None or in_interval(
                        candidate_id, pred_id, state.node_id,
                        bits=self.config.id_bits):
                    state.predecessor = candidate

    # -- stabilization and failures ---------------------------------------------------

    def _stabilize(self, ctx: HandlerContext, state: ChordState) -> None:
        successor = state.successor()
        if successor is not None and successor != state.addr:
            ctx.send(successor, GET_PRED, {})
            ctx.send(successor, UPDATE_PRED, {"pred_id": state.node_id})
        if state.joined:
            ctx.set_timer(STABILIZE_TIMER, self.config.stabilize_period)

    def handle_connection_error(self, ctx: HandlerContext, state: ChordState,
                                peer: Address) -> None:
        state.forget(peer)
