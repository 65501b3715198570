"""Paxos: fault-tolerant consensus (Section 5.4.2)."""

from .properties import (
    ACCEPTED_IMPLIES_PROMISED,
    ALL_PROPERTIES,
    AT_MOST_ONE_VALUE_CHOSEN,
    LOCAL_AGREEMENT,
)
from .protocol import ACCEPT, LEARN, PREPARE, PROMISE, Paxos, PaxosConfig
from .state import NO_ROUND, PaxosState

__all__ = [
    "ACCEPT",
    "LEARN",
    "PREPARE",
    "PROMISE",
    "Paxos",
    "PaxosConfig",
    "ACCEPTED_IMPLIES_PROMISED",
    "ALL_PROPERTIES",
    "AT_MOST_ONE_VALUE_CHOSEN",
    "LOCAL_AGREEMENT",
    "NO_ROUND",
    "PaxosState",
]
