"""Scripted KV-store snapshot for offline search.

The stale-read scenario captures the signature optimistic-execution state:
coordinator A optimistically committed a write of ``k0`` whose replication
to B and C was cut off by a partition (the pending-write entry still shows
only A's own ack), and A's client script is about to read ``k0`` back.
Consequence prediction fires the armed client timer: in optimistic mode
the read is served by one rotated replica that still holds the old
version, violating read-your-writes within three transitions.  Built with
``fixed=True`` the same history is quorum-committed (B acked before the
cut) and the read collects ``R = 2`` replies — the read quorum intersects
the write quorum, so every path stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ...mc.global_state import GlobalState
from ...runtime.address import Address, make_addresses
from .protocol import CLIENT_TIMER, KvConfig, KvStore
from .state import KvState


@dataclass
class StaleReadScenario:
    """Three replicas; A reads back an under-replicated optimistic write."""

    protocol: KvStore
    states: Mapping[Address, KvState]
    timers: Mapping[Address, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, *, fixed: bool = False) -> "StaleReadScenario":
        """``fixed=False`` builds the optimistic mode the search falsifies."""
        addresses = make_addresses(3, start=1)
        a, b, c = addresses
        protocol = KvStore(KvConfig(peers=tuple(addresses),
                                    read_quorum=2, write_quorum=2,
                                    optimistic=not fixed))
        states = {addr: protocol.initial_state(addr) for addr in addresses}

        base_version = (1, b.host)
        fresh_version = (2, a.host)

        # Established history: everyone once held k0@base; A then wrote
        # k0@fresh and committed it (optimistically, or — in the fixed
        # variant — after B's quorum ack).  The partition cut the rest of
        # the replication, so the pending entry still awaits acks.
        for state in states.values():
            state.store["k0"] = (base_version, "base")
            state.observe_version(base_version)
        coordinator = states[a]
        coordinator.store["k0"] = (fresh_version, "fresh")
        coordinator.observe_version(fresh_version)
        coordinator.committed["k0"] = (fresh_version, "fresh")
        coordinator.last_written["k0"] = fresh_version
        coordinator.writes_done = 1
        acks = {a, b} if fixed else {a}
        coordinator.pending_writes["k0"] = {
            "version": fresh_version, "value": "fresh",
            "acks": acks, "committed": True}
        if fixed:
            states[b].store["k0"] = (fresh_version, "fresh")
            states[b].observe_version(fresh_version)

        # A's client script is about to read k0 back; the client timer is
        # armed, so the model checker can fire the read.  The other nodes'
        # scripts are cleared (their client timers are not armed anyway).
        coordinator.workload = (("get", "k0", None),)
        coordinator.next_op = 0
        for addr, state in states.items():
            if addr != a:
                state.workload = ()

        timers = {a: (CLIENT_TIMER,)}
        return cls(protocol=protocol, states=states, timers=timers)

    def global_state(self) -> GlobalState:
        return GlobalState.from_snapshot(self.states, timers=self.timers)
