"""Checkpoint-number logical clock (Section 2.3).

Each node keeps a checkpoint number ``cn``.  Every outgoing service message
is stamped with the sender's ``cn``; a receiver whose ``cn`` is smaller takes
a *forced checkpoint* before processing the message and adopts the larger
number.  This preserves the happens-before relationship among the collected
checkpoints, so a set of checkpoints with the same number forms a consistent
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LogicalClock:
    """Per-node checkpoint-number clock.

    The clock only decides *when* a checkpoint must be taken; actually
    storing the checkpoint is the checkpoint manager's job
    (:mod:`repro.core.checkpoint`).
    """

    value: int = 0

    def stamp(self) -> int:
        """Checkpoint number to piggyback on an outgoing message."""
        return self.value

    def observe(self, message_cn: int) -> bool:
        """Process the checkpoint number of an incoming message.

        Returns ``True`` when a forced checkpoint must be taken *before* the
        message is processed (i.e. the message carries a larger number).
        """
        if message_cn > self.value:
            self.value = message_cn
            return True
        return False

    def advance(self) -> int:
        """Locally increment the clock (periodic checkpoint); returns new value."""
        self.value += 1
        return self.value

    def observe_request(self, request_cn: int) -> bool:
        """Process a checkpoint *request* number (Section 2.3, case 1).

        Returns ``True`` when the request is for a future checkpoint, in which
        case the node must take a fresh checkpoint stamped ``request_cn`` and
        adopt that number.
        """
        if request_cn > self.value:
            self.value = request_cn
            return True
        return False
