"""Consistent neighbourhood snapshots (Section 3.1).

A snapshot is a set of checkpoints — one per neighbourhood member — that do
not violate the happens-before relationship, gathered by the checkpoint
manager at a common checkpoint number.  The gather is the first stage of a
controller round (:class:`~repro.core.controller.Round`): the requesting
node sends checkpoint requests, neighbours respond (positively or
negatively), and the round closes at the next controller tick into a
snapshot of whatever checkpoints arrived; missing members are represented by
the model checker's dummy node.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mc.global_state import GlobalState
from ..runtime.address import Address
from .checkpoint import Checkpoint


@dataclass
class NeighborhoodSnapshot:
    """A finalised consistent snapshot of a node's neighbourhood."""

    origin: Address
    checkpoint_number: int
    checkpoints: dict[Address, Checkpoint]
    missing: frozenset[Address] = frozenset()

    def to_global_state(self) -> GlobalState:
        """Build the model-checking start state from this snapshot.

        The start state shares the checkpoints' states: no search writes
        one, as a handler runs on a copy.  In-flight messages among snapshot
        members are unknown at gather time and therefore empty; consequence
        prediction regenerates messages by executing handlers.  Nodes outside
        the snapshot play the role of the dummy node: messages addressed to
        them are dropped by the transition system and their events are never
        explored.
        """
        states = {addr: c.state for addr, c in self.checkpoints.items()}
        timers = {addr: c.timers for addr, c in self.checkpoints.items()}
        return GlobalState.from_snapshot(states, timers=timers)

    def is_consistent(self) -> bool:
        """All checkpoints carry a number >= the snapshot's number.

        The forced-checkpoint rule guarantees that a checkpoint stamped
        ``cn`` was taken before the node processed any message that happened
        after logical time ``cn``; a snapshot whose members all satisfy
        ``C.cn >= snapshot.cn`` therefore cannot violate happens-before.
        """
        return all(c.checkpoint_number >= self.checkpoint_number
                   for c in self.checkpoints.values())
