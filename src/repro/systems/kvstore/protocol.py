"""Quorum-replicated key-value store with an optimistic-execution mode.

Every node is a replica and the coordinator for its own client, whose
deterministic put/get script is embedded in the node state and driven by
the ``client`` timer (so the model checker sees the upcoming operations in
every checkpoint).  A put stores locally, replicates to all peers and —
depending on the mode — acks the client either immediately (*optimistic
execution*, after Nguyen et al.'s optimistic KV store) or once ``W``
replicas acked.  A background reconciler keeps re-sending unacked
replications until every replica converges.

Reads are the observable difference between the modes: the quorum mode
collects ``R`` versioned replies (``R + W > N``, so a read quorum always
intersects the write quorum and sees the newest committed write), while
the optimistic mode serves a read from one rotated replica — fast, but
under a partition that replica may still miss this client's own committed
write, producing the read-your-writes/monotonic-reads staleness the
CrystalBall steering demo predicts and avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ...runtime.address import Address
from ...runtime.context import HandlerContext
from ...runtime.messages import Message
from ...runtime.protocol import Protocol
from .state import NO_VERSION, KvState, Version

REPLICATE = "Replicate"
REPL_ACK = "ReplAck"
READ_REQ = "ReadReq"
READ_REPLY = "ReadReply"

CLIENT_TIMER = "client"
RECONCILE_TIMER = "reconcile"


@dataclass
class KvConfig:
    """Replica-group membership, quorum sizes and workload knobs."""

    peers: tuple[Address, ...] = ()
    read_quorum: int = 2
    write_quorum: int = 2
    #: ack writes to the client before the write quorum confirms.
    optimistic: bool = False
    #: period of the client script timer (one op per firing).
    op_period: float = 10.0
    #: period of the background repair timer.
    reconcile_period: float = 20.0
    #: number of distinct keys the generated workload touches.
    keys: int = 2
    #: length of each node's generated put/get script.
    ops_per_node: int = 8

    def workload_for(self, addr: Address) -> tuple[tuple, ...]:
        """Deterministic per-node client script: put/get pairs per key.

        Each pair writes a key and reads it back one period later, so the
        read-your-writes floor is exercised on every other operation; the
        key rotates per pair (and per host) so nodes contend.
        """
        key_names = [f"k{i}" for i in range(max(1, self.keys))]
        ops: list[tuple] = []
        for n in range(self.ops_per_node):
            key = key_names[(addr.host + n // 2) % len(key_names)]
            if n % 2 == 0:
                ops.append(("put", key, f"v{addr.host}.{n}"))
            else:
                ops.append(("get", key, None))
        return tuple(ops)


class KvStore(Protocol):
    """One node of the quorum-replicated KV store."""

    name = "KvStore"

    def __init__(self, config: Optional[KvConfig] = None) -> None:
        self.config = config or KvConfig()

    # -- state -------------------------------------------------------------------

    def initial_state(self, addr: Address) -> KvState:
        return KvState(addr=addr, peers=tuple(self.config.peers),
                       optimistic=self.config.optimistic,
                       read_quorum=self.config.read_quorum,
                       write_quorum=self.config.write_quorum,
                       workload=self.config.workload_for(addr))

    def neighbors(self, state: KvState) -> list[Address]:
        return self._others(state)

    def on_start(self, ctx: HandlerContext, state: KvState) -> None:
        # Stagger the first client op per host so coordinators do not act
        # in lockstep (deterministically: no randomness involved).
        ctx.set_timer(CLIENT_TIMER, 1.0 + state.addr.host % 5)
        ctx.set_timer(RECONCILE_TIMER, self.config.reconcile_period)

    def _others(self, state: KvState) -> list[Address]:
        return sorted(a for a in state.peers if a != state.addr)

    # -- client script -----------------------------------------------------------

    def handle_app(self, ctx: HandlerContext, state: KvState, call: str,
                   payload: Mapping[str, Any]) -> None:
        """External client operations (the "get-put" workload): the same
        coordinator paths the embedded client script drives."""
        if call == "put":
            self._do_put(ctx, state, str(payload.get("key", "k0")),
                         payload.get("value"))
        elif call == "get":
            self._do_get(ctx, state, str(payload.get("key", "k0")))

    def handle_timer(self, ctx: HandlerContext, state: KvState,
                     timer: str) -> None:
        if timer == CLIENT_TIMER:
            if state.workload_done():
                return  # script finished: let the system quiesce
            op, key, value = state.workload[state.next_op]
            state.next_op += 1
            if op == "put":
                self._do_put(ctx, state, key, value)
            else:
                self._do_get(ctx, state, key)
            if not state.workload_done():
                ctx.set_timer(CLIENT_TIMER, self.config.op_period)
        elif timer == RECONCILE_TIMER:
            self._reconcile(ctx, state)
            ctx.set_timer(RECONCILE_TIMER, self.config.reconcile_period)

    # -- writes ------------------------------------------------------------------

    def _do_put(self, ctx: HandlerContext, state: KvState, key: str,
                value: Any) -> None:
        version = state.next_version()
        state.store[key] = (version, value)
        entry = {"version": version, "value": value, "acks": {state.addr},
                 "committed": False}
        state.pending_writes[key] = entry
        for peer in self._others(state):
            ctx.send(peer, REPLICATE,
                     {"key": key, "version": version, "value": value})
        if state.optimistic or state.write_quorum <= 1:
            # Optimistic execution: ack the client now; the reconciler
            # repairs replicas in the background.
            self._commit_write(state, entry, key)

    def _commit_write(self, state: KvState, entry: dict, key: str) -> None:
        if entry["committed"]:
            return
        entry["committed"] = True
        version, value = entry["version"], entry["value"]
        state.committed[key] = (version, value)
        if version > state.last_written.get(key, NO_VERSION):
            state.last_written[key] = version
        state.writes_done += 1

    def _reconcile(self, ctx: HandlerContext, state: KvState) -> None:
        for key in sorted(state.pending_writes):
            entry = state.pending_writes[key]
            for peer in self._others(state):
                if peer not in entry["acks"]:
                    ctx.send(peer, REPLICATE,
                             {"key": key, "version": entry["version"],
                              "value": entry["value"]})

    # -- reads -------------------------------------------------------------------

    def _do_get(self, ctx: HandlerContext, state: KvState, key: str) -> None:
        state.read_counter += 1
        rid = state.read_counter
        if state.optimistic:
            others = self._others(state)
            if not others:
                self._record_read(state, key, state.stored_version(key))
                return
            target = others[state.read_rotation % len(others)]
            state.read_rotation += 1
            state.pending_reads[rid] = {"key": key, "expect": 1,
                                        "replies": {}}
            ctx.send(target, READ_REQ, {"key": key, "rid": rid})
            return
        expect = min(state.read_quorum, state.replica_count())
        local_version, local_value = state.store.get(key, (NO_VERSION, None))
        replies = {state.addr: (local_version, local_value)}
        state.pending_reads[rid] = {"key": key, "expect": expect,
                                    "replies": replies}
        if len(replies) >= expect:
            self._finish_read(state, rid)
            return
        for peer in self._others(state):
            ctx.send(peer, READ_REQ, {"key": key, "rid": rid})

    def _finish_read(self, state: KvState, rid: int) -> None:
        request = state.pending_reads.pop(rid)
        version = max(v for v, _value in request["replies"].values())
        self._record_read(state, request["key"], version)

    def _record_read(self, state: KvState, key: str,
                     version: Version) -> None:
        state.observe_version(version)
        write_floor = state.last_written.get(key, NO_VERSION)
        if version < write_floor:
            state.stale_reads.append(
                ("read_your_writes", key, write_floor, version))
        read_floor = state.last_read.get(key, NO_VERSION)
        if version < read_floor:
            state.stale_reads.append(
                ("monotonic_reads", key, read_floor, version))
        if version > read_floor:
            state.last_read[key] = version
        state.reads_done += 1

    # -- replica role ------------------------------------------------------------

    def handle_message(self, ctx: HandlerContext, state: KvState,
                       message: Message) -> None:
        handlers = {
            REPLICATE: self._on_replicate,
            REPL_ACK: self._on_repl_ack,
            READ_REQ: self._on_read_req,
            READ_REPLY: self._on_read_reply,
        }
        handler = handlers.get(message.mtype)
        if handler is not None:
            handler(ctx, state, message)

    def _on_replicate(self, ctx: HandlerContext, state: KvState,
                      message: Message) -> None:
        key = message.get("key")
        version: Version = tuple(message.get("version"))
        state.observe_version(version)
        if version > state.stored_version(key):
            state.store[key] = (version, message.get("value"))
        # Ack unconditionally (also for duplicates and stale retries) so
        # the coordinator's reconciler converges.
        ctx.send(message.src, REPL_ACK, {"key": key, "version": version})

    def _on_repl_ack(self, ctx: HandlerContext, state: KvState,
                     message: Message) -> None:
        key = message.get("key")
        version: Version = tuple(message.get("version"))
        entry = state.pending_writes.get(key)
        if entry is None or tuple(entry["version"]) != version:
            return  # superseded by a newer local write
        entry["acks"].add(message.src)
        if not entry["committed"] and len(entry["acks"]) >= state.write_quorum:
            self._commit_write(state, entry, key)
        if len(entry["acks"]) >= state.replica_count():
            del state.pending_writes[key]  # fully replicated

    def _on_read_req(self, ctx: HandlerContext, state: KvState,
                     message: Message) -> None:
        key = message.get("key")
        version, value = state.store.get(key, (NO_VERSION, None))
        ctx.send(message.src, READ_REPLY,
                 {"key": key, "rid": message.get("rid"),
                  "version": version, "value": value})

    def _on_read_reply(self, ctx: HandlerContext, state: KvState,
                       message: Message) -> None:
        request = state.pending_reads.get(message.get("rid"))
        if request is None:
            return
        request["replies"][message.src] = \
            (tuple(message.get("version")), message.get("value"))
        if len(request["replies"]) >= request["expect"]:
            self._finish_read(state, message.get("rid"))

    # -- failures ----------------------------------------------------------------

    def handle_connection_error(self, ctx: HandlerContext, state: KvState,
                                peer: Address) -> None:
        # Replication retries go through the reconciler; an unreachable
        # read target simply leaves the read outstanding.
        pass
