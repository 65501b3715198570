"""Handler execution context.

Protocol handlers are written once and executed in three places: the live
runtime (discrete-event simulator), the consequence-prediction model checker,
and the immediate safety check.  A :class:`HandlerContext` decouples the
handler code from its host: handlers call ``ctx.send`` / ``ctx.set_timer`` /
``ctx.close_connection`` and the host interprets the collected effects.
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

    # -- helpers used by hosts -------------------------------------------------

    def armed_timers(self, current: frozenset[str]) -> frozenset[str]:
        """The ``current`` armed set plus every timer this handler armed."""
        timers = set(current)
        for op in self.timer_ops:
            timers.add(op.name)
        return frozenset(timers)
