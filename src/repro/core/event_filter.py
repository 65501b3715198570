"""Event filters — the mechanism execution steering installs into the
runtime (Sections 3.3 and 4, "Event Filtering for Execution steering").

A filter names the one handler invocation at its node that steering refuses:
a message type and source, or a timer name
(:func:`~repro.core.steering.steering_filter` reads it off a predicted
violation's path).  A matching event is refused, and its kind fixes what
that does (:meth:`~repro.runtime.simulator.NodeHook.filter_event`): a
message is dropped together with a TCP connection reset towards its
sender, while a timer is rescheduled rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.address import Address
from ..runtime.events import Event, MessageEvent, TimerEvent


@dataclass(frozen=True)
class EventFilter:
    """A single corrective action; a value, so it keys its re-check."""

    #: Node the filter is installed on (filters are local to a node).
    node: Address
    #: Message filters: type plus source (destination is ``node``).
    message_type: Optional[str] = None
    message_src: Optional[Address] = None
    #: Timer filters.
    timer_name: Optional[str] = None
    #: The installing controller's running ``filters_installed`` count.
    filter_id: int = 0

    @property
    def action(self) -> str:
        """The corrective action as traces name it.  Timers are never
        dropped outright — they are rescheduled (``"delay"``) so
        liveness-critical periodic work eventually runs."""
        if self.message_type is None:
            return "delay"
        return "drop_and_reset"

    def matches(self, event: Event) -> bool:
        """True when ``event`` is the handler invocation this filter blocks."""
        if event.node != self.node:
            return False
        if self.message_type is not None:
            if not isinstance(event, MessageEvent):
                return False
            if event.message.mtype != self.message_type:
                return False
            return self.message_src is None or event.message.src == self.message_src
        if self.timer_name is not None:
            return isinstance(event, TimerEvent) and event.timer == self.timer_name
        return False

    def describe(self) -> str:
        if self.message_type is not None:
            src = self.message_src if self.message_src is not None else "*"
            target = f"message {self.message_type} from {src}"
        else:
            target = f"timer '{self.timer_name}'"
        return f"filter#{self.filter_id} on {self.node}: {self.action} {target}"
