"""Deployed-mode backend: protocol nodes behind real TCP sockets.

Each node gets a real TCP listener (on the loopback interface by default);
every message the coordinator delivers — service traffic and the CrystalBall
control plane alike — is encoded into a length-prefixed compact-bytes frame
(:mod:`repro.backends.wire`), written to a connection accepted by the
destination node's listener, read back off the wire, decoded, and only
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

The coordinator ships one frame at a time, so the sockets block and every
node shares one thread.  Per-node subprocesses would speak the same frame
protocol; the single-process form keeps the CI smoke cheap.
"""

from __future__ import annotations

import socket
from typing import Any, Optional

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.simulator import Simulator
from .base import register_backend
from .wire import WireError, WireStats, read_frame, write_frame

#: Bytes put on a link per ``send``: far below a loopback socket's buffers,
#: so a slice always fits once the previous one has been read back.
CHUNK_BYTES = 16 * 1024


class _Link:
    """One ``src -> dst`` connection: its connecting and its accepted end.

    One thread writes a frame and reads it back, so the link is the socket
    on both sides of :func:`write_frame` / :func:`read_frame`: ``sendall``
    only holds the frame, and ``recv_into`` sends its next slice once all
    sent before it was read, so a frame larger than the socket buffers
    never blocks on a full pipe.
    """

    def __init__(self, sender: socket.socket, receiver: socket.socket) -> None:
        self.sender = sender
        self.receiver = receiver
        self._pending = memoryview(b"")
        self._unread = 0

    def sendall(self, frame: bytes) -> None:
        self._pending = memoryview(frame)

    def recv_into(self, buffer: memoryview, nbytes: int) -> int:
        if not self._unread and self._pending:
            chunk = self._pending[:CHUNK_BYTES]
            self.sender.sendall(chunk)
            self._pending = self._pending[CHUNK_BYTES:]
            self._unread = len(chunk)
        received = self.receiver.recv_into(buffer, nbytes)
        self._unread -= received
        return received

    def close(self) -> None:
        self.sender.close()
        self.receiver.close()


class AsyncioTcpBackend(Simulator):
    """Real-socket transport under the deterministic coordinator."""

    backend_name = "tcp"
    #: what ``Experiment.backend("tcp", ...)`` accepts.
    accepted_options = ("host", "port_base", "frame_timeout")

    def __init__(
        self,
        *args: Any,
        host: str = "127.0.0.1",
        port_base: int = 0,
        frame_timeout: float = 30.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.host = host
        self.port_base = int(port_base)
        self.frame_timeout = float(frame_timeout)
        self.wire_stats = WireStats()
        #: deliveries run locally because their socket or frame failed:
        #: semantics never depend on socket health, but the count is reported.
        self.wire_fallbacks = 0
        self._listeners: dict[Address, socket.socket] = {}
        self._links: dict[tuple[Address, Address], _Link] = {}

    # -- running ------------------------------------------------------------

    def run(
        self, *, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run the schedule with every delivery routed over real sockets.

        Listeners and links live for the duration of this call; the
        inherited :meth:`Simulator.step` stays socket-free and is only
        suitable for local debugging.
        """
        try:
            for index, addr in enumerate(sorted(self.nodes)):
                port = self.port_base + index if self.port_base else 0
                listener = socket.create_server((self.host, port))
                listener.settimeout(self.frame_timeout)
                self._listeners[addr] = listener
            for message in self.deliveries(until, max_events):
                self._deliver_over_wire(message)
        finally:
            for link in self._links.values():
                link.close()
            self._links.clear()
            for listener in self._listeners.values():
                listener.close()
            self._listeners.clear()

    # -- the wire -----------------------------------------------------------

    def _deliver_over_wire(self, message: Message) -> None:
        """Ship one due delivery through its destination's real socket.

        The handler runs on the copy decoded off the wire, so byte-level
        serialization is on the critical path as in a deployment.
        Deliveries to dead or unlistening peers take the inherited local
        path, which records the drop.
        """
        node = self.nodes.get(message.dst)
        if node is None or not node.alive or message.dst not in self._listeners:
            self.deliver(message)
            return
        key = (message.src, message.dst)
        try:
            link = self._link_for(*key)
            frame_bytes = write_frame(link, message)
            decoded = read_frame(link)
        except (OSError, WireError):
            # A torn socket, a timeout or a torn frame must not change what
            # the protocol observes: drop the link and run the local copy.
            if key in self._links:
                self._links.pop(key).close()
            self.wire_fallbacks += 1
            self.deliver(message)
            return
        self.wire_stats.record(message, frame_bytes)
        self.deliver(decoded)

    def _link_for(self, src: Address, dst: Address) -> _Link:
        """The ``src -> dst`` link, connected on first use."""
        link = self._links.get((src, dst))
        if link is None:
            listener = self._listeners[dst]
            sender = socket.create_connection(
                listener.getsockname()[:2], timeout=self.frame_timeout
            )
            sender.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            receiver, _ = listener.accept()
            receiver.settimeout(self.frame_timeout)
            link = self._links[src, dst] = _Link(sender, receiver)
        return link

    # -- reporting ----------------------------------------------------------

    def wire_report(self) -> dict[str, Any]:
        """Wire accounting merged into ``RunReport.outcome["wire"]``."""
        report = self.wire_stats.report()
        report["fallback_local"] = self.wire_fallbacks
        return report


register_backend("tcp", AsyncioTcpBackend)
