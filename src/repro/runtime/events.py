"""Events processed by protocol state machines.

The paper's model (Figure 4) distinguishes two handler families: message
handlers (``HM``) and internal-action handlers (``HA``, covering timers and
application calls).  We additionally surface node resets and transport
errors as events, because the evaluated bugs are triggered by exactly those
(silent resets, lost TCP RSTs, broken connections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Union

from .address import Address
from .messages import Message
from .serialization import freeze


@dataclass(frozen=True)
class MessageEvent:
    """Delivery of a network message to ``node``."""

    node: Address
    message: Message

    def signature(self) -> tuple:
        return ("msg", freeze(self.node), self.message.signature())

    def describe(self) -> str:
        return f"{self.node} handles {self.message}"


@dataclass(frozen=True)
class TimerEvent:
    """Expiry of a named timer at ``node``."""

    node: Address
    timer: str

    def signature(self) -> tuple:
        return ("timer", freeze(self.node), self.timer)

    def describe(self) -> str:
        return f"{self.node} fires timer '{self.timer}'"


@dataclass(frozen=True)
class AppEvent:
    """An application call into the service at ``node`` (e.g. 'join')."""

    node: Address
    call: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def signature(self) -> tuple:
        return ("app", freeze(self.node), self.call, freeze(dict(self.payload)))

    def describe(self) -> str:
        return f"{self.node} application call '{self.call}'"


@dataclass(frozen=True)
class ResetEvent:
    """A silent node reset (power failure / crash-and-reboot) at ``node``."""

    node: Address

    def signature(self) -> tuple:
        return ("reset", freeze(self.node))

    def describe(self) -> str:
        return f"{self.node} resets"


@dataclass(frozen=True)
class ConnectionErrorEvent:
    """Transport error upcall: the TCP connection between ``node`` and
    ``peer`` broke (RST received or send on a dead connection failed)."""

    node: Address
    peer: Address

    def signature(self) -> tuple:
        return ("connerr", freeze(self.node), freeze(self.peer))

    def describe(self) -> str:
        return f"{self.node} sees connection error with {self.peer}"


Event = Union[MessageEvent, TimerEvent, AppEvent, ResetEvent, ConnectionErrorEvent]

#: Internal (non-message) events: these correspond to the paper's ``HA``
#: handlers plus node resets.
INTERNAL_EVENT_TYPES = (TimerEvent, AppEvent, ResetEvent, ConnectionErrorEvent)


def is_internal(event: Event) -> bool:
    """True if ``event`` is an internal action (not a message delivery)."""
    return isinstance(event, INTERNAL_EVENT_TYPES)
