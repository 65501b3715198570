"""Distributed-system runtime substrate (the Mace + ModelNet equivalent).

Protocols are state machines (:class:`~repro.runtime.protocol.Protocol`)
with explicit local state (:class:`~repro.runtime.state.NodeState`); the
discrete-event :class:`~repro.runtime.simulator.Simulator` executes them
against a :class:`~repro.runtime.network.NetworkModel` with latency, loss,
partitions, TCP failure semantics, node resets and churn.
"""

from .address import Address, DUMMY_ADDRESS, make_addresses
from .context import HandlerContext, TimerOp
from .events import (
    AppEvent,
    ConnectionErrorEvent,
    Event,
    MessageEvent,
    ResetEvent,
    TimerEvent,
    is_internal,
)
from .logical_clock import LogicalClock
from .messages import Message, Transport
from .network import NetworkModel
from .protocol import Protocol
from .simulator import FilterAction, NodeHook, NodeStats, SimNode, Simulator
from .state import NodeState
from .transport import ConnectionTable
from .churn import ChurnProcess

__all__ = [
    "Address",
    "DUMMY_ADDRESS",
    "make_addresses",
    "HandlerContext",
    "TimerOp",
    "AppEvent",
    "ConnectionErrorEvent",
    "Event",
    "MessageEvent",
    "ResetEvent",
    "TimerEvent",
    "is_internal",
    "LogicalClock",
    "Message",
    "Transport",
    "NetworkModel",
    "Protocol",
    "FilterAction",
    "NodeHook",
    "NodeStats",
    "SimNode",
    "Simulator",
    "NodeState",
    "ConnectionTable",
    "ChurnProcess",
]
