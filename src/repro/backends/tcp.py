"""Deployed-mode backend: protocol nodes behind real asyncio TCP sockets.

Each node gets a real TCP listener (an asyncio server on the loopback
interface by default); every message the coordinator delivers — service
traffic and the CrystalBall control plane alike — is encoded into a
length-prefixed compact-bytes frame (:mod:`repro.backends.wire`), written to
the destination node's socket, read back off the wire, decoded, and only
*then* executed.  Checkpoints and snapshots therefore ship over the wire for
real: a ``CHECKPOINT_RESPONSE`` carrying a cloned node state crosses a
socket as serialized bytes, and the controller operates on the decoded copy.

The event schedule stays a deterministic coordinator: simulated time, RNG
draws, loss/latency modeling and ``(time, seq)`` delivery order are the
shared :class:`~repro.runtime.simulator.Simulator` machinery, so a seeded
tcp run reproduces the *same* property violations and final protocol states
as the sim backend — that equivalence is what makes deployed-mode bug
reproductions (RandTree Figure 2, the Bullet' shadow map) trustworthy.  The
shared TCP failure contract (:class:`~repro.runtime.transport.
ConnectionTable` stale-incarnation upcalls) is enforced at send time, before
a frame is ever cut, exactly as in sim.  Bullet' models its bounded
non-blocking send queue in its own protocol state, so it behaves the same
on either backend.

Nodes run as asyncio tasks in one process.  Per-node subprocesses would
speak the same frame protocol (the wire format carries everything needed);
the single-process form keeps the CI smoke cheap.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Optional

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.simulator import Simulator
from .base import register_backend
from .wire import WireStats, read_frame, write_frame


@dataclass
class _NodeEndpoint:
    """One node's network presence: a listener plus its decoded-frame inbox."""

    addr: Address
    server: Any = None
    port: int = 0
    inbox: "asyncio.Queue[Message]" = field(default_factory=asyncio.Queue)

    async def close(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None


class AsyncioTcpBackend(Simulator):
    """Real-socket transport under the deterministic coordinator."""

    backend_name = "tcp"
    #: what ``Experiment.backend("tcp", ...)`` accepts.
    accepted_options = ("host", "port_base", "frame_timeout")

    def __init__(self, *args: Any, host: str = "127.0.0.1",
                 port_base: int = 0, frame_timeout: float = 30.0,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.host = host
        self.port_base = int(port_base)
        self.frame_timeout = float(frame_timeout)
        self.wire_stats = WireStats()
        #: deliveries that skipped the wire (dead peer, torn socket): the
        #: local path still executes them so semantics never depend on
        #: socket health, but the count is reported for honesty.
        self.wire_fallbacks = 0
        self._endpoints: dict[Address, _NodeEndpoint] = {}
        self._writers: dict[tuple[Address, Address], Any] = {}

    # -- running ------------------------------------------------------------

    def run(self, *, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run the schedule with every delivery routed over real sockets.

        Endpoints (listeners and outgoing connections) live for the
        duration of this call; the inherited :meth:`Simulator.step` stays
        socket-free and is only suitable for local debugging.
        """
        asyncio.run(self._run_async(until=until, max_events=max_events))

    async def _run_async(self, *, until: Optional[float],
                         max_events: Optional[int]) -> None:
        await self._open_endpoints()
        try:
            for message in self.deliveries(until, max_events):
                await self._deliver_over_wire(message)
        finally:
            await self._close_endpoints()

    # -- the wire -----------------------------------------------------------

    async def _deliver_over_wire(self, message: Message) -> None:
        """Ship one due delivery through its destination's real socket.

        The frame round-trip is awaited before the handler runs, so the
        executed event operates on the decoded-from-wire copy — byte-level
        serialization is on the critical path exactly as in a deployment.
        Deliveries to dead or unlistening peers skip the wire and take the
        inherited local path, which records the drop.
        """
        node = self.nodes.get(message.dst)
        endpoint = self._endpoints.get(message.dst)
        if node is None or not node.alive or endpoint is None \
                or endpoint.server is None:
            self.deliver(message)
            return
        try:
            writer = await self._writer_for(message.src, message.dst)
            frame_bytes = await write_frame(writer, message)
            decoded = await asyncio.wait_for(endpoint.inbox.get(),
                                             timeout=self.frame_timeout)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            # A torn loopback socket must not change what the protocol
            # observes: execute the local copy and account the fallback.
            self.wire_fallbacks += 1
            self.deliver(message)
            return
        self.wire_stats.record(message, frame_bytes)
        self.deliver(decoded)

    async def _writer_for(self, src: Address, dst: Address) -> Any:
        """The cached outgoing stream for the ``src -> dst`` pair."""
        key = (src, dst)
        writer = self._writers.get(key)
        if writer is not None and not writer.is_closing():
            return writer
        endpoint = self._endpoints[dst]
        _reader, writer = await asyncio.open_connection(self.host,
                                                        endpoint.port)
        self._writers[key] = writer
        return writer

    async def _serve_node(self, endpoint: _NodeEndpoint, reader: Any,
                          writer: Any) -> None:
        """Per-connection listener task: decode frames into the inbox."""
        try:
            while True:
                message = await read_frame(reader)
                await endpoint.inbox.put(message)
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass
        except asyncio.CancelledError:
            # Run teardown: the event loop is shutting down and cancels
            # reader tasks still waiting for a frame.  Returning (instead
            # of re-raising) lets them finish quietly.
            pass
        finally:
            writer.close()

    async def _open_endpoints(self) -> None:
        for index, addr in enumerate(sorted(self.nodes)):
            if addr in self._endpoints:
                continue
            endpoint = _NodeEndpoint(addr=addr)
            port = self.port_base + index if self.port_base else 0

            def handler(reader: Any, writer: Any,
                        endpoint: _NodeEndpoint = endpoint) -> Any:
                return self._serve_node(endpoint, reader, writer)

            endpoint.server = await asyncio.start_server(
                handler, self.host, port)
            endpoint.port = endpoint.server.sockets[0].getsockname()[1]
            self._endpoints[addr] = endpoint

    async def _close_endpoints(self) -> None:
        for writer in self._writers.values():
            writer.close()
        for writer in self._writers.values():
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass
        self._writers.clear()
        for endpoint in self._endpoints.values():
            await endpoint.close()
        self._endpoints.clear()

    # -- reporting ----------------------------------------------------------

    def wire_report(self) -> dict[str, Any]:
        """Wire accounting merged into ``RunReport.outcome["wire"]``."""
        report = self.wire_stats.report()
        report["fallback_local"] = self.wire_fallbacks
        return report


register_backend("tcp", AsyncioTcpBackend)
