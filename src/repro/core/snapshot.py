"""Consistent neighbourhood snapshots (Section 3.1).

A snapshot is a set of checkpoints — one per neighbourhood member — that do
not violate the happens-before relationship, gathered by the checkpoint
manager at a common checkpoint number.  The gather is asynchronous: the
requesting node sends checkpoint requests, neighbours respond (positively or
negatively), and the snapshot is finalised at the next controller tick with
whatever checkpoints arrived; missing members are represented by the model
checker's dummy node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mc.global_state import GlobalState
from ..runtime.address import Address
from .checkpoint import Checkpoint


@dataclass
class SnapshotGather:
    """An in-progress snapshot collection round."""

    origin: Address
    checkpoint_number: int
    expected: frozenset[Address]
    received: dict[Address, Checkpoint] = field(default_factory=dict)
    negative: dict[Address, int] = field(default_factory=dict)

    def record_response(self, checkpoint: Checkpoint) -> None:
        self.received[checkpoint.node] = checkpoint

    def record_negative(self, node: Address, current_cn: int) -> None:
        self.negative[node] = current_cn

    @property
    def complete(self) -> bool:
        return set(self.received) | set(self.negative) >= set(self.expected)

    @property
    def missing(self) -> frozenset[Address]:
        return frozenset(self.expected - set(self.received) - set(self.negative))


@dataclass
class NeighborhoodSnapshot:
    """A finalised consistent snapshot of a node's neighbourhood."""

    origin: Address
    checkpoint_number: int
    checkpoints: dict[Address, Checkpoint]
    missing: frozenset[Address] = frozenset()

    @classmethod
    def from_gather(cls, gather: SnapshotGather,
                    local: Checkpoint) -> "NeighborhoodSnapshot":
        """Finalise a gather round, always including the local checkpoint."""
        checkpoints = dict(gather.received)
        checkpoints[local.node] = local
        return cls(
            origin=gather.origin,
            checkpoint_number=gather.checkpoint_number,
            checkpoints=checkpoints,
            missing=gather.missing | frozenset(gather.negative),
        )

    @property
    def members(self) -> frozenset[Address]:
        return frozenset(self.checkpoints)

    def to_global_state(self) -> GlobalState:
        """Build the model-checking start state from this snapshot.

        In-flight messages among snapshot members are unknown at gather time
        and therefore empty; consequence prediction regenerates messages by
        executing handlers.  Nodes outside the snapshot play the role of the
        dummy node: messages addressed to them are dropped by the transition
        system and their events are never explored.
        """
        states = {addr: c.state.clone() for addr, c in self.checkpoints.items()}
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
