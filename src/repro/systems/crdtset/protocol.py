"""Op-based OR-Set + PN-Counter replica protocol with anti-entropy.

Client operations (``add``/``remove``/``inc``/``dec``) are turned into
operations with ``(origin, seq)`` identity, applied locally and broadcast
to every peer.  A periodic anti-entropy round rotates over the peers and
exchanges delivery-vector digests; a peer that is ahead pushes the missing
suffix of its op log, which heals partitions, lost messages and reset
replicas.

Two delivery disciplines share this code path:

* **OR-Set mode** (default, correct): per-origin FIFO with exactly-once
  delivery; a remove cancels precisely the add-tags it observed, so
  concurrent add/remove resolves add-wins and replicas converge.
* **LWW mode** (``lww=True``, deliberately buggy): operations are applied
  in arrival order with no dedup and no causal buffering — a re-ordered
  or duplicated ``add`` resurrects an element a remove already covered,
  and replicas with identical delivery vectors can disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ...runtime.address import Address
from ...runtime.context import HandlerContext
from ...runtime.messages import Message
from ...runtime.protocol import Protocol
from .state import CrdtState

OP = "Op"
DIGEST = "Digest"
OPS = "Ops"

SYNC_TIMER = "sync"

#: Largest op batch one anti-entropy reply carries.
SYNC_BATCH = 64


def _norm_op(op: Mapping[str, Any]) -> dict:
    """Canonicalise an op that round-tripped through a message payload."""
    op = dict(op)
    if "tag" in op:
        op["tag"] = tuple(op["tag"])
    if "observed" in op:
        op["observed"] = tuple(tuple(tag) for tag in op["observed"])
    return op


@dataclass
class CrdtConfig:
    """Replica-group membership and protocol knobs."""

    peers: tuple[Address, ...] = ()
    #: period of the anti-entropy rotation timer.
    sync_period: float = 15.0
    #: enable the deliberately buggy last-writer-wins delivery discipline.
    lww: bool = False


class CrdtReplica(Protocol):
    """One replica of the OR-Set + PN-Counter object."""

    name = "CrdtSet"

    def __init__(self, config: Optional[CrdtConfig] = None) -> None:
        self.config = config or CrdtConfig()

    # -- state -------------------------------------------------------------------

    def initial_state(self, addr: Address) -> CrdtState:
        return CrdtState(addr=addr, peers=tuple(self.config.peers),
                         lww=self.config.lww)

    def neighbors(self, state: CrdtState) -> list[Address]:
        return self._others(state)

    def on_start(self, ctx: HandlerContext, state: CrdtState) -> None:
        ctx.set_timer(SYNC_TIMER, self.config.sync_period)

    def _others(self, state: CrdtState) -> list[Address]:
        return sorted(a for a in state.peers if a != state.addr)

    # -- application interface ---------------------------------------------------

    def handle_app(self, ctx: HandlerContext, state: CrdtState, call: str,
                   payload: Mapping[str, Any]) -> None:
        if call == "add":
            elem = payload.get("elem")
            self._emit(ctx, state, {"kind": "add", "elem": elem,
                                    "tag": (state.addr.host, state.seq + 1)})
        elif call == "remove":
            elem = payload.get("elem")
            observed = tuple(sorted(state.live_tags(elem)))
            self._emit(ctx, state, {"kind": "remove", "elem": elem,
                                    "observed": observed})
        elif call in ("inc", "dec"):
            amount = int(payload.get("amount", 1))
            self._emit(ctx, state, {"kind": call, "amount": amount})

    def _emit(self, ctx: HandlerContext, state: CrdtState,
              fields: Mapping[str, Any]) -> None:
        """Mint, apply and broadcast one locally originated op."""
        state.seq += 1
        op = {"origin": state.addr.host, "seq": state.seq, **fields}
        self._ingest(state, op)
        for peer in self._others(state):
            ctx.send(peer, OP, {"op": op})

    # -- delivery ----------------------------------------------------------------

    def _ingest(self, state: CrdtState, raw_op: Mapping[str, Any]) -> None:
        op = _norm_op(raw_op)
        origin, seq = op["origin"], op["seq"]
        if state.lww:
            # BUGGY: apply in arrival order; no dedup, no causal buffering.
            self._apply(state, op)
            self._log_op(state, op)
            if seq > state.delivered.get(origin, 0):
                state.delivered[origin] = seq
            return
        if seq <= state.delivered.get(origin, 0):
            return  # duplicate of an already delivered op
        if seq != state.delivered.get(origin, 0) + 1:
            state.pending[(origin, seq)] = op
            return
        self._deliver(state, op)
        # drain buffered ops that just became causally ready
        while True:
            ready = state.pending.pop((origin, state.delivered[origin] + 1),
                                      None)
            if ready is None:
                break
            self._deliver(state, ready)

    def _deliver(self, state: CrdtState, op: dict) -> None:
        self._apply(state, op)
        self._log_op(state, op)
        state.delivered[op["origin"]] = op["seq"]

    def _log_op(self, state: CrdtState, op: dict) -> None:
        entries = state.log.setdefault(op["origin"], [])
        if any(entry["seq"] == op["seq"] for entry in entries):
            return
        index = len(entries)
        while index > 0 and entries[index - 1]["seq"] > op["seq"]:
            index -= 1
        entries.insert(index, op)

    def _apply(self, state: CrdtState, op: dict) -> None:
        kind = op["kind"]
        if kind == "add":
            state.adds.setdefault(op["elem"], set()).add(op["tag"])
            if state.lww:
                state.present[op["elem"]] = op["tag"]
        elif kind == "remove":
            state.covered.update(op["observed"])
            if state.lww:
                state.present.pop(op["elem"], None)
            else:
                state.tombstones.update(op["observed"])
        elif kind == "inc":
            state.incs[op["origin"]] = \
                state.incs.get(op["origin"], 0) + op["amount"]
        elif kind == "dec":
            state.decs[op["origin"]] = \
                state.decs.get(op["origin"], 0) + op["amount"]

    # -- anti-entropy ------------------------------------------------------------

    def handle_timer(self, ctx: HandlerContext, state: CrdtState,
                     timer: str) -> None:
        if timer != SYNC_TIMER:
            return
        others = self._others(state)
        if others:
            target = others[state.sync_rotation % len(others)]
            state.sync_rotation += 1
            ctx.send(target, DIGEST, {"vector": dict(state.delivered)})
        ctx.set_timer(SYNC_TIMER, self.config.sync_period)

    def handle_message(self, ctx: HandlerContext, state: CrdtState,
                       message: Message) -> None:
        if message.mtype == OP:
            self._ingest(state, message.get("op"))
        elif message.mtype == DIGEST:
            self._on_digest(ctx, state, message)
        elif message.mtype == OPS:
            for op in message.get("ops", ()):
                self._ingest(state, op)

    def _on_digest(self, ctx: HandlerContext, state: CrdtState,
                   message: Message) -> None:
        vector = {int(host): int(seq)
                  for host, seq in dict(message.get("vector", {})).items()}
        missing: list[dict] = []
        for origin in sorted(state.log):
            theirs = vector.get(origin, 0)
            for op in state.log[origin]:
                if op["seq"] > theirs:
                    missing.append(op)
        if missing:
            ctx.send(message.src, OPS, {"ops": missing[:SYNC_BATCH]})
        if any(seq > state.delivered.get(host, 0)
               for host, seq in vector.items()):
            # the digest shows the sender is ahead of us: ask it to push
            # by advertising our own vector back.
            ctx.send(message.src, DIGEST, {"vector": dict(state.delivered)})

    # -- failures ----------------------------------------------------------------

    def handle_connection_error(self, ctx: HandlerContext, state: CrdtState,
                                peer: Address) -> None:
        # Anti-entropy re-delivers anything a broken connection dropped.
        pass
