"""Connection tracking for TCP-like transports.

The evaluated bugs hinge on TCP failure semantics: silent node resets, lost
RST packets, and error upcalls when a stale connection is used.  The
:class:`ConnectionTable` records, per node, which peers it believes it has an
established connection with and the peer *incarnation* observed at
establishment time; a peer that has reset since then has a newer incarnation
and any use of the stale connection produces a transport error.

Bullet' additionally depends on a bounded, non-blocking send queue
(MaceTcpTransport) that refuses new data when full — the behaviour that
exposes the shadow-file-map bug.  That queue is part of the Bullet' model
itself (``BulletConfig.send_queue_capacity``, ``BulletState.queue_bytes``),
so the model checker explores it like any other protocol state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .address import Address


@dataclass
class ConnectionTable:
    """Per-node table of established TCP connections."""

    #: peer address -> peer incarnation number recorded when the connection
    #: was established.
    peers: dict[Address, int] = field(default_factory=dict)

    def establish(self, peer: Address, peer_incarnation: int) -> None:
        self.peers[peer] = peer_incarnation

    def recorded_incarnation(self, peer: Address) -> Optional[int]:
        return self.peers.get(peer)

    def close(self, peer: Address) -> bool:
        """Drop the connection entry; returns True if it existed."""
        return self.peers.pop(peer, None) is not None

    def close_all(self) -> list[Address]:
        """Drop every connection; returns the list of peers affected."""
        peers = list(self.peers)
        self.peers.clear()
        return peers
