"""Network messages exchanged by protocol state machines.

A message corresponds to the ``(N, M)`` pairs of the paper's system model
(Figure 4): a destination node plus message content, where the content
carries the sender and an arbitrary payload.  Messages also piggyback the
sender's checkpoint number, which drives the consistent-snapshot algorithm
of Section 2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from .address import Address
from .serialization import estimate_size, freeze


class Transport(Enum):
    """Transport used to carry a message.

    TCP connections can break and signal errors back to the protocol
    (Section 3.3 relies on connection resets as a steering action); UDP
    messages are fire-and-forget.
    """

    TCP = "tcp"
    UDP = "udp"


@dataclass(frozen=True)
class Message:
    """A protocol-level message.

    Attributes
    ----------
    mtype:
        Message type name (e.g. ``"Join"``, ``"UpdateSibling"``).
    src, dst:
        Sender and destination addresses.
    payload:
        Message body.  Stored as a plain mapping; :meth:`signature` produces
        a canonical hashable form for model checking.
    transport:
        TCP or UDP semantics.
    checkpoint_number:
        The sender's checkpoint number at send time (Section 2.3).  Control
        messages of the checkpoint manager itself do not advance it.
    control:
        True for CrystalBall control-plane messages (checkpoint requests and
        responses); these are routed to the controller, not the service.
    msg_id:
        Serial number the sending simulator gives the message (``0`` until
        sent), used for tracing; ignored by state hashing so that model
        checking does not distinguish otherwise identical messages.
    """

    mtype: str
    src: Address
    dst: Address
    payload: Mapping[str, Any] = field(default_factory=dict)
    transport: Transport = Transport.TCP
    checkpoint_number: int = 0
    control: bool = False
    msg_id: int = field(default=0, compare=False)
    _sig_cache: Any = field(default=None, repr=False, compare=False, init=False)

    def signature(self) -> tuple:
        """Canonical hashable identity used by the model checker.

        Cached: payloads are never mutated after construction, and one
        in-flight message is shared by every search state that carries it.
        """
        if self._sig_cache is None:
            object.__setattr__(self, "_sig_cache", (
                self.mtype,
                freeze(self.src),
                freeze(self.dst),
                freeze(dict(self.payload)),
                self.transport.value,
            ))
        return self._sig_cache

    def size_bytes(self) -> int:
        """Approximate wire size, for bandwidth accounting (cached)."""
        cached = self.__dict__.get("_size")
        if cached is None:
            cached = 28 + estimate_size(dict(self.payload))
            object.__setattr__(self, "_size", cached)
        return cached

    def __reduce__(self) -> tuple:
        """Pickle the fields only, never the caches (frames, sizes)."""
        return (Message, (self.mtype, self.src, self.dst, self.payload,
                          self.transport, self.checkpoint_number,
                          self.control, self.msg_id))

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into the payload."""
        return self.payload.get(key, default)

    def __str__(self) -> str:
        return f"{self.mtype}({self.src}->{self.dst})"
