"""Event filters — the mechanism execution steering installs into the
runtime (Sections 3.3 and 4, "Event Filtering for Execution steering").

A filter identifies the handler invocation to avoid: for network messages it
carries the message type, source and destination; for timer events it
carries the timer name.  When a filter triggers, network
messages are dropped (optionally together with a TCP connection reset
towards the sender), while timer events are rescheduled rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.address import Address
from ..runtime.events import Event, MessageEvent, TimerEvent
from ..runtime.simulator import FilterAction


@dataclass
class EventFilter:
    """A single installed corrective action."""

    #: Node the filter is installed on (filters are local to a node).
    node: Address
    action: FilterAction = FilterAction.DROP_AND_RESET
    #: Message filters: type plus source (destination is ``node``).
    message_type: Optional[str] = None
    message_src: Optional[Address] = None
    #: Timer filters.
    timer_name: Optional[str] = None
    #: Why the filter exists (the predicted violation), for reporting.
    reason: str = ""
    #: The installing controller's running ``filters_installed`` count.
    filter_id: int = 0

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

    def decision(self, event: Event) -> FilterAction:
        """Filter decision for a matching event.

        Timer events are never dropped outright — they are rescheduled
        (DELAY) so liveness-critical periodic work eventually runs.
        """
        if isinstance(event, TimerEvent):
            return FilterAction.DELAY
        return self.action

    def describe(self) -> str:
        if self.message_type is not None:
            src = self.message_src if self.message_src is not None else "*"
            target = f"message {self.message_type} from {src}"
        else:
            target = f"timer '{self.timer_name}'"
        return f"filter#{self.filter_id} on {self.node}: {self.action.value} {target}"


def derive_filter(node: Address, event: Event, *, reason: str = "",
                  action: FilterAction = FilterAction.DROP_AND_RESET) -> Optional[EventFilter]:
    """Build the event filter that blocks ``event`` at ``node``.

    Returns ``None`` for events that are not steered: node resets and
    transport errors (environment actions, not handler invocations the
    runtime controls) and application calls (the client's, not the
    protocol's).
    """
    if event.node != node:
        return None
    if isinstance(event, MessageEvent):
        return EventFilter(node=node, action=action, reason=reason,
                           message_type=event.message.mtype,
                           message_src=event.message.src)
    if isinstance(event, TimerEvent):
        return EventFilter(node=node, action=FilterAction.DELAY, reason=reason,
                           timer_name=event.timer)
    return None
