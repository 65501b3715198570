"""The composable fault types the nemesis can schedule.

Topology faults (:class:`Partition`, :class:`LinkFlap`) act on the
:class:`~repro.runtime.network.NetworkModel` partition set; lifecycle faults
(:class:`CrashRestart`) drive the simulator's crash/revive hooks so a
restart comes back with fresh state, exactly like churn; :class:`ClockSkew`
jumps a node's checkpoint-number clock, forcing peers into forced
checkpoints (Section 2.3); message faults (:class:`MessageDelay`,
:class:`MessageReorder`, :class:`MessageDup`) are
:class:`~repro.faults.base.WindowFault` windows that sit on the network
model as its interceptor for their duration.

All target selection draws from the nemesis-provided RNG, so a fault
schedule is reproducible from the nemesis seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.simulator import Simulator
from .base import Fault, WindowFault

__all__ = [
    "Partition",
    "LinkFlap",
    "CrashRestart",
    "ClockSkew",
    "MessageDelay",
    "MessageReorder",
    "MessageDup",
]


# ---------------------------------------------------------------- topology


@dataclass
class Partition(Fault):
    """Split the alive nodes into two sides and cut every cross link.

    ``fraction`` of the alive nodes (at least ``min_side``, never all) are
    placed on the minority side; ``spare`` keeps the first addresses
    (bootstrap node, Bullet' source) on the majority side.  Each heal
    restores exactly the links its own injection cut (injections and heals
    pair up FIFO), so overlapping partitions compose safely.
    """

    name = "partition"

    fraction: float = 0.5
    min_side: int = 1
    spare: int = 0
    #: FIFO of per-injection link batches; heals pop the oldest batch.
    _cut_batches: list[list[tuple[Address, Address]]] = field(
        default_factory=list, init=False, repr=False
    )

    def inject(self, sim: Simulator, rng: random.Random) -> Optional[dict]:
        nodes = self.alive_addresses(sim)
        eligible = self.alive_addresses(sim, spare=self.spare)
        if len(nodes) < 2 or not eligible:
            return None
        size = min(
            max(self.min_side, round(len(nodes) * self.fraction)),
            len(nodes) - 1,
            len(eligible),
        )
        minority = set(rng.sample(eligible, size))
        majority = [addr for addr in nodes if addr not in minority]
        batch = []
        for a in minority:
            for b in majority:
                sim.network.partition(a, b)
                batch.append((a, b))
        self._cut_batches.append(batch)
        return {"minority": sorted(str(a) for a in minority), "links_cut": len(batch)}

    def heal(self, sim: Simulator) -> Optional[dict]:
        batch = self._cut_batches.pop(0) if self._cut_batches else []
        for a, b in batch:
            sim.network.heal(a, b)
        return {"links_restored": len(batch)}


@dataclass
class LinkFlap(Fault):
    """Repeatedly cut and restore one (stable) link.

    The pair is picked on the first injection and reused while both ends
    stay alive, modelling a single flaky physical link rather than roaming
    partitions.
    """

    name = "link-flap"

    _pair: Optional[tuple[Address, Address]] = field(
        default=None, init=False, repr=False
    )
    #: FIFO of pairs cut by past injections; each heal restores the pair
    #: its own injection cut, even if the flapping link changed since.
    _cut_pairs: list[tuple[Address, Address]] = field(
        default_factory=list, init=False, repr=False
    )

    def inject(self, sim: Simulator, rng: random.Random) -> Optional[dict]:
        if self._pair is not None:
            a, b = self._pair
            if not (sim.nodes[a].alive and sim.nodes[b].alive):
                self._pair = None
        if self._pair is None:
            nodes = self.alive_addresses(sim)
            if len(nodes) < 2:
                return None
            self._pair = tuple(rng.sample(nodes, 2))
        a, b = self._pair
        sim.network.partition(a, b)
        self._cut_pairs.append((a, b))
        return {"link": f"{a}<->{b}"}

    def heal(self, sim: Simulator) -> Optional[dict]:
        if not self._cut_pairs:
            return None
        a, b = self._cut_pairs.pop(0)
        sim.network.heal(a, b)
        return {"link": f"{a}<->{b}"}


# ---------------------------------------------------------------- lifecycle


@dataclass
class CrashRestart(Fault):
    """Fail-stop crash; the restart (after ``duration``) resets node state.

    With ``duration=None`` the crash is permanent.  ``spare`` protects the
    first addresses (bootstrap node, Bullet' source) from being targeted;
    ``target`` pins the victim instead of drawing one from the RNG.
    """

    name = "crash-restart"

    target: Optional[Address] = None
    spare: int = 1
    _down: Optional[Address] = field(default=None, init=False, repr=False)

    def inject(self, sim: Simulator, rng: random.Random) -> Optional[dict]:
        if self._down is not None:
            return None  # still down from the previous injection
        if self.target is not None:
            node = sim.nodes.get(self.target)
            if node is None or not node.alive:
                return None
            victim = self.target
        else:
            candidates = self.alive_addresses(sim, spare=self.spare)
            if not candidates:
                return None
            victim = rng.choice(candidates)
        sim.crash_node(victim)
        self._down = victim
        return {"node": str(victim), "restart": self.duration is not None}

    def heal(self, sim: Simulator) -> Optional[dict]:
        if self._down is None:
            return None
        victim, self._down = self._down, None
        sim.revive_node(victim)
        return {"node": str(victim), "state": "reset"}

    def cleanup(self, sim: Simulator) -> None:
        # A node still down at the end of the run stays down — crash state
        # lives in the (discarded) simulator, not in any shared object, and
        # a post-run revival would distort the collected outcome.
        self._down = None


@dataclass
class ClockSkew(Fault):
    """Jump one node's checkpoint-number clock forward by ``amount``.

    Every peer that later receives a message from the skewed node observes a
    larger checkpoint number and takes a forced checkpoint first — the
    Section 2.3 mechanism under clock divergence.
    """

    name = "clock-skew"

    amount: int = 5
    spare: int = 0

    def inject(self, sim: Simulator, rng: random.Random) -> Optional[dict]:
        candidates = self.alive_addresses(sim, spare=self.spare)
        if not candidates:
            return None
        victim = rng.choice(candidates)
        node = sim.nodes[victim]
        for _ in range(self.amount):
            node.clock.advance()
        return {"node": str(victim), "advanced": self.amount, "clock": node.clock.value}


# ------------------------------------------------------------- message faults


@dataclass
class MessageDelay(WindowFault):
    """Add ``[min_extra, max_extra]`` seconds of latency to every message
    transmitted while the window is open (TCP ordering is preserved)."""

    name = "message-delay"

    min_extra: float = 0.1
    max_extra: float = 0.5

    def describe(self) -> dict:
        return {"min_extra": self.min_extra, "max_extra": self.max_extra}

    def transform(
        self, message: Message, plan: list[float], rng: random.Random
    ) -> list[float]:
        if not plan:
            return plan
        self.affected += 1
        return [
            latency + rng.uniform(self.min_extra, self.max_extra) for latency in plan
        ]


@dataclass
class MessageReorder(WindowFault):
    """Randomly defer a fraction of messages by up to ``window`` seconds so
    later sends can overtake them.  The simulator keeps TCP streams FIFO, so
    reordering is observable on UDP traffic and across distinct peers."""

    name = "message-reorder"

    probability: float = 0.5
    window: float = 1.0

    def describe(self) -> dict:
        return {"probability": self.probability, "window": self.window}

    def transform(
        self, message: Message, plan: list[float], rng: random.Random
    ) -> list[float]:
        if not plan or rng.random() >= self.probability:
            return plan
        self.affected += 1
        return [latency + rng.uniform(0.0, self.window) for latency in plan]


@dataclass
class MessageDup(WindowFault):
    """Deliver a fraction of service messages twice — the retransmit-glitch
    adversary that flushes out non-idempotent handlers."""

    name = "message-dup"

    probability: float = 0.25

    def describe(self) -> dict:
        return {"probability": self.probability}

    def transform(
        self, message: Message, plan: list[float], rng: random.Random
    ) -> list[float]:
        # Control-plane messages are idempotent by construction; duplicating
        # them only inflates bandwidth accounting, so target service traffic.
        if not plan or message.control or rng.random() >= self.probability:
            return plan
        self.affected += 1
        return plan + [plan[-1] + rng.uniform(1e-3, 0.05)]
