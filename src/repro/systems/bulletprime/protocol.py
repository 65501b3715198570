"""Bullet' protocol implementation (Section 5.2.3).

Bullet' distributes a file from a source to every mesh participant: the
source pushes blocks to a subset of nodes, every node periodically announces
newly obtained blocks to its mesh peers with Diff messages, and receivers
explicitly request missing blocks.  Senders and receivers communicate over a
bounded non-blocking transport that refuses new data when its queue is full.

The inconsistency the paper found is reproduced faithfully: when a Diff
cannot be accepted by the transport, the implementation clears the
receiver's shadow file map anyway, so the affected blocks are never
announced again (the attempted Mace fix retried the send but still cleared
the map).  ``fix_shadow_map`` applies the paper's correction: keep the
shadow entries when the transport refuses the message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ...runtime.address import Address
from ...runtime.context import HandlerContext
from ...runtime.messages import Message
from ...runtime.protocol import Protocol
from .state import BulletState

DIFF = "Diff"
REQUEST_BLOCK = "RequestBlock"
BLOCK = "Block"

DIFF_TIMER = "diff"
REQUEST_TIMER = "request"
DRAIN_TIMER = "drain"

#: Approximate wire overhead of a Diff entry and a block payload, used for
#: send-queue accounting.
DIFF_ENTRY_BYTES = 4
DIFF_HEADER_BYTES = 32


@dataclass
class BulletConfig:
    """Bullet' parameters and the shadow-file-map bug switch."""

    source: Optional[Address] = None
    #: mesh: node -> its peers (must be symmetric for a sensible overlay).
    mesh: dict[Address, tuple[Address, ...]] = field(default_factory=dict)
    block_count: int = 64
    block_size: int = 4096
    diff_period: float = 2.0
    request_period: float = 1.0
    drain_period: float = 1.0
    #: bytes drained from each per-peer send queue per drain period.
    drain_rate: int = 16384
    #: capacity of the bounded non-blocking send queue (MaceTcpTransport).
    send_queue_capacity: int = 32768
    #: apply the paper's fix: do not clear the shadow map on a refused send.
    fix_shadow_map: bool = False


class BulletPrime(Protocol):
    """The Bullet' file-distribution mesh."""

    name = "BulletPrime"

    def __init__(self, config: Optional[BulletConfig] = None) -> None:
        self.config = config or BulletConfig()

    # -- state ------------------------------------------------------------------

    def initial_state(self, addr: Address) -> BulletState:
        peers = tuple(self.config.mesh.get(addr, ()))
        state = BulletState(addr=addr,
                            source=self.config.source,
                            peers=peers,
                            block_count=self.config.block_count,
                            is_source=addr == self.config.source)
        if state.is_source:
            for block in range(self.config.block_count):
                state.acquire(block)
        return state

    def on_start(self, ctx: HandlerContext, state: BulletState) -> None:
        ctx.set_timer(DIFF_TIMER, self.config.diff_period)
        ctx.set_timer(REQUEST_TIMER, self.config.request_period)
        ctx.set_timer(DRAIN_TIMER, self.config.drain_period)

    def neighbors(self, state: BulletState) -> list[Address]:
        return sorted(state.peers)

    # -- timers -------------------------------------------------------------------

    def handle_timer(self, ctx: HandlerContext, state: BulletState, timer: str) -> None:
        if timer == DIFF_TIMER:
            self._send_diffs(ctx, state)
            ctx.set_timer(DIFF_TIMER, self.config.diff_period)
        elif timer == REQUEST_TIMER:
            self._request_blocks(ctx, state)
            ctx.set_timer(REQUEST_TIMER, self.config.request_period)
        elif timer == DRAIN_TIMER:
            for peer in state.peers:
                queued = state.queue_bytes.get(peer, 0)
                state.queue_bytes[peer] = max(0, queued - self.config.drain_rate)
            ctx.set_timer(DRAIN_TIMER, self.config.drain_period)

    def _send_diffs(self, ctx: HandlerContext, state: BulletState) -> None:
        """Announce newly obtained blocks to every peer (the buggy handler)."""
        for peer in state.peers:
            pending = state.shadow.get(peer, set())
            if not pending:
                continue
            size = DIFF_HEADER_BYTES + DIFF_ENTRY_BYTES * len(pending)
            queued = state.queue_bytes.get(peer, 0)
            if queued + size <= self.config.send_queue_capacity:
                ctx.send(peer, DIFF, {"blocks": tuple(sorted(pending))})
                state.queue_bytes[peer] = queued + size
                state.shadow[peer] = set()
            else:
                # The transport refused the diff.  BUG: the shadow file map
                # is cleared anyway, so these blocks will never be included
                # in a later diff and the receiver never learns about them.
                if not self.config.fix_shadow_map:
                    state.shadow[peer] = set()

    def _request_blocks(self, ctx: HandlerContext, state: BulletState) -> None:
        """Request one missing block from each peer that advertises one."""
        if state.complete:
            return
        for peer in state.peers:
            available = state.view.get(peer, set()) - state.have - state.requested
            if not available:
                continue
            # Rarest-random policy approximated by a random pick among the
            # candidate blocks (rarity information is per-peer here).  The
            # model checker draws from Random(0), so it explores one block
            # choice per state.
            block = ctx.rng.choice(sorted(available))
            state.requested.add(block)
            ctx.send(peer, REQUEST_BLOCK, {"block": block})

    # -- application requests ----------------------------------------------------------

    def handle_app(self, ctx: HandlerContext, state: BulletState, call: str,
                   payload: Mapping) -> None:
        if call == "fetch":
            # On-demand block fetch (the workload generator's request
            # type): ask the source — or an explicit target — for one
            # block, bypassing the periodic rarest-random request cycle.
            target = payload.get("target", state.source)
            if target is None or target == state.addr:
                return
            block = int(payload.get("key", 0)) % max(1, state.block_count)
            if block in state.have:
                return
            state.requested.add(block)
            ctx.send(target, REQUEST_BLOCK, {"block": block})

    # -- message handlers ------------------------------------------------------------

    def handle_message(self, ctx: HandlerContext, state: BulletState,
                       message: Message) -> None:
        if message.mtype == DIFF:
            blocks = set(message.get("blocks", ()))
            state.view.setdefault(message.src, set()).update(blocks)
        elif message.mtype == REQUEST_BLOCK:
            block = message.get("block")
            if block in state.have:
                state.queue_bytes[message.src] = (
                    state.queue_bytes.get(message.src, 0) + self.config.block_size)
                ctx.send(message.src, BLOCK, {"block": block})
        elif message.mtype == BLOCK:
            block = message.get("block")
            state.acquire(block)
            if state.complete and state.completed_at is None:
                # The model checker runs handlers at now=0.0 and writes 0.0.
                state.completed_at = ctx.now

    # -- failures ----------------------------------------------------------------------

    def handle_connection_error(self, ctx: HandlerContext, state: BulletState,
                                peer: Address) -> None:
        state.queue_bytes[peer] = 0
        state.view.pop(peer, None)
