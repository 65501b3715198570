"""Checkpoints and checkpoint storage (Sections 2.3, 3.1, 4).

A checkpoint is a copy of one node's local state stamped with a checkpoint
number (the logical clock of Section 2.3).  The :class:`CheckpointStore`
keeps a bounded history of local checkpoints under a per-node quota, prunes
the oldest first, and answers checkpoint requests the way the snapshot
algorithm requires: return the earliest stored checkpoint whose number is at
least the requested one, or a negative answer carrying the current number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..runtime.address import Address
from ..runtime.serialization import delta_size, diff_size
from ..runtime.state import NodeState


@dataclass
class Checkpoint:
    """A stamped copy of one node's local state."""

    node: Address
    checkpoint_number: int
    state: NodeState
    timers: frozenset[str] = frozenset()

    def size_bytes(self) -> int:
        """Uncompressed checkpoint size (Section 5.5 reports these)."""
        return self.state.size_bytes() + 16 * len(self.timers)

    def compressed_bytes(self) -> int:
        """Size after the checkpoint manager's compression (Section 4)."""
        return self.state.compressed_bytes() + 8 * len(self.timers)

    def delta_bytes(self, previous: Optional[NodeState]) -> int:
        """Wire cost against a peer holding ``previous`` under delta
        encoding: only the changed state fields travel (plus the timer
        set), never more than the full compressed checkpoint."""
        if previous is None:
            return self.compressed_bytes()
        return min(delta_size(previous, self.state) + 8 * len(self.timers),
                   self.compressed_bytes())


@dataclass
class CheckpointStore:
    """Bounded local history of a node's own checkpoints.

    Parameters
    ----------
    quota:
        Maximum number of checkpoints retained; older checkpoints are removed
        first to make room (Section 3.1, "Managing Checkpoint Storage").
    """

    quota: int = 16
    checkpoints: list[Checkpoint] = field(default_factory=list)

    def record(self, checkpoint: Checkpoint) -> None:
        """Store a new checkpoint, pruning the oldest beyond the quota."""
        self.checkpoints.append(checkpoint)
        self.checkpoints.sort(key=lambda c: c.checkpoint_number)
        while len(self.checkpoints) > self.quota:
            self.checkpoints.pop(0)

    def latest(self) -> Optional[Checkpoint]:
        """Most recent checkpoint, or ``None`` if empty."""
        return self.checkpoints[-1] if self.checkpoints else None

    def respond(self, requested_cn: int) -> Optional[Checkpoint]:
        """Answer a checkpoint request for number ``requested_cn``.

        Returns the earliest checkpoint with ``cn >= requested_cn`` (case 2
        of Section 2.3) or ``None`` when every such checkpoint has been
        pruned, in which case the caller must send a negative response
        carrying its current checkpoint number.
        """
        for checkpoint in self.checkpoints:
            if checkpoint.checkpoint_number >= requested_cn:
                return checkpoint
        return None

    def __len__(self) -> int:
        return len(self.checkpoints)


@dataclass
class PeerTransferCache:
    """Per-peer memory of the last checkpoint sent, for the diff/dedup
    optimisation of Section 4: identical checkpoints are not re-sent, and
    changed ones are charged at (compressed) diff cost."""

    last_sent: dict[Address, NodeState] = field(default_factory=dict)

    def transfer_cost(self, peer: Address, checkpoint: Checkpoint, *,
                      delta: bool = False) -> int:
        """Bytes needed to send ``checkpoint`` to ``peer`` given history.

        With ``delta=True`` a changed checkpoint is charged at
        delta-encoded cost (changed state fields only) instead of the
        conservative full compressed re-send.
        """
        previous = self.last_sent.get(peer)
        if previous is None:
            cost = checkpoint.compressed_bytes()
        elif delta:
            # Never worse than the conservative accounting: an unchanged
            # state stays at the bare header even though the delta form
            # would re-ship the timer set.
            cost = min(checkpoint.delta_bytes(previous),
                       diff_size(previous, checkpoint.state))
        else:
            cost = diff_size(previous, checkpoint.state)
        self.last_sent[peer] = checkpoint.state.clone()
        return cost
