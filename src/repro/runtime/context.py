"""Handler execution context.

Protocol handlers are written once and run through
:func:`~repro.runtime.protocol.run_handler`, which builds the context from
its host's time and RNG: the simulator's on a live node, ``0.0`` and
``Random(0)`` on the model checker's clone.  A :class:`HandlerContext`
decouples the handler code from its host: handlers call ``ctx.send`` /
``ctx.set_timer`` / ``ctx.close_connection`` and the host applies the
collected effects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from .address import Address
from .messages import Message, Transport


@dataclass
class TimerOp:
    """A timer (re-)arm request produced by a handler."""

    name: str
    delay: float = 0.0


@dataclass
class HandlerContext:
    """Collects the side effects of one handler execution.

    Attributes
    ----------
    self_addr:
        Address of the node the handler runs on.
    now:
        Current simulated time (0.0 inside the model checker, where time is
        abstracted away).
    rng:
        Deterministic RNG.  Handlers must use this instead of the global
        ``random`` module so that erroneous paths can be replayed
        (Section 4, "we deterministically replay pseudo-random number
        generation").
    """

    self_addr: Address
    now: float = 0.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    sent: list[Message] = field(default_factory=list)
    timer_ops: list[TimerOp] = field(default_factory=list)
    closed_connections: list[Address] = field(default_factory=list)

    def send(
        self,
        dst: Address,
        mtype: str,
        payload: Mapping[str, Any] | None = None,
        *,
        transport: Transport = Transport.TCP,
    ) -> Message:
        """Queue a message for transmission to ``dst``."""
        message = Message(
            mtype=mtype,
            src=self.self_addr,
            dst=dst,
            payload=dict(payload or {}),
            transport=transport,
        )
        self.sent.append(message)
        return message

    def set_timer(self, name: str, delay: float = 1.0) -> None:
        """(Re-)arm the named timer to fire after ``delay`` simulated seconds."""
        self.timer_ops.append(TimerOp(name=name, delay=delay))

    def close_connection(self, peer: Address) -> None:
        """Tear down the TCP connection with ``peer`` (sends a RST)."""
        self.closed_connections.append(peer)
