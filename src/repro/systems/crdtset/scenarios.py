"""Scripted CRDT snapshots for offline search (MET-style).

The concurrent-ops scenario reproduces the classic add/remove race that
separates a correct OR-Set from a last-writer-wins set.  Replica A added
element ``x`` (tag ``(1, 1)``) and everyone delivered it.  Concurrently,
replica B removed ``x`` (observing exactly that tag) while a duplicated
copy of A's original add is still in flight towards replica C.  Exhaustive
search over the delivery interleavings at C falsifies the LWW variant —
the late duplicate resurrects ``x`` through a covered tag and C diverges
from A under an equal delivery vector — while the OR-Set variant (built
with ``fixed=True``) deduplicates the op and stays clean on every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ...mc.global_state import GlobalState
from ...runtime.address import Address, make_addresses
from ...runtime.messages import Message
from .protocol import OP, CrdtConfig, CrdtReplica
from .state import CrdtState


@dataclass
class ConcurrentOpsScenario:
    """Three replicas racing a remove against a duplicated add."""

    protocol: CrdtReplica
    states: Mapping[Address, CrdtState]
    inflight: tuple[Message, ...] = field(default_factory=tuple)

    @classmethod
    def build(cls, *, fixed: bool = False) -> "ConcurrentOpsScenario":
        """``fixed=False`` builds the buggy LWW variant the search falsifies."""
        addresses = make_addresses(3, start=1)
        a, b, c = addresses
        protocol = CrdtReplica(CrdtConfig(peers=tuple(addresses),
                                          lww=not fixed))
        states = {addr: protocol.initial_state(addr) for addr in addresses}

        # Established history: A's add of "x" was delivered everywhere.
        add_op = {"origin": a.host, "seq": 1, "kind": "add", "elem": "x",
                  "tag": (a.host, 1)}
        for addr in addresses:
            protocol._ingest(states[addr], add_op)
        states[a].seq = 1

        # Concurrent present: B removes "x" (observing tag (1, 1)); its
        # Remove ops to A and C are still in flight, as is a duplicated
        # copy of A's original add heading for C.
        remove_op = {"origin": b.host, "seq": 1, "kind": "remove",
                     "elem": "x", "observed": ((a.host, 1),)}
        protocol._ingest(states[b], remove_op)
        states[b].seq = 1

        inflight = (
            Message(mtype=OP, src=b, dst=a, payload={"op": remove_op}),
            Message(mtype=OP, src=b, dst=c, payload={"op": remove_op}),
            Message(mtype=OP, src=a, dst=c, payload={"op": add_op}),
        )
        return cls(protocol=protocol, states=states, inflight=inflight)

    def global_state(self) -> GlobalState:
        return GlobalState.from_snapshot(self.states, inflight=self.inflight)
