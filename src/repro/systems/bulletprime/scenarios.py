"""Bullet' mesh construction."""

from __future__ import annotations

import random
from typing import Sequence

from ...runtime.address import Address


def build_mesh(addresses: Sequence[Address], *, degree: int = 4,
               seed: int = 0) -> dict[Address, tuple[Address, ...]]:
    """Build a random symmetric mesh of the given target degree.

    Stands in for the peering decisions Bullet' makes on top of the RandTree
    discovery protocol: every node peers with a small set of other nodes and
    the mesh is connected through the source.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rng = random.Random(seed)
    peers: dict[Address, set[Address]] = {addr: set() for addr in addresses}
    ordered = list(addresses)
    # Ring backbone guarantees connectivity.
    for i, addr in enumerate(ordered):
        other = ordered[(i + 1) % len(ordered)]
        if other != addr:
            peers[addr].add(other)
            peers[other].add(addr)
    # Random extra links up to the target degree.
    for addr in ordered:
        candidates = [a for a in ordered if a != addr and a not in peers[addr]]
        rng.shuffle(candidates)
        for other in candidates:
            if len(peers[addr]) >= degree:
                break
            if len(peers[other]) >= degree + 1:
                continue
            peers[addr].add(other)
            peers[other].add(addr)
    return {addr: tuple(sorted(members)) for addr, members in peers.items()}
