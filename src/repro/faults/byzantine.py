"""Byzantine fault types: an adversary that lies instead of failing.

The benign nemesis faults (partitions, crashes, delays) only model a
*fail-stop* world; CrystalBall's steering claim is more interesting against
an adversary that forges traffic.  Three composable
:class:`~repro.faults.base.Fault` types supply that adversary, all acting
through the :meth:`~repro.faults.base.MessageInterceptor.rewrite` hook on
the network model so the tampering happens "on the wire" — senders keep
their honest state, receivers observe forged bytes:

:class:`MessageTamper`
    Mutates payload fields of a random fraction of in-flight service
    messages through a per-system *mutator* hook (protocol-aware poison
    when the system registers one, a generic integer perturbation
    otherwise).

:class:`SpoofSender`
    Rewrites the source address of a fraction of service messages to
    another live node, forging provenance.

:class:`EquivocatingNode`
    Picks one liar node and rewrites everything it sends so that different
    destinations observe *conflicting* payloads for the same logical step —
    the classic equivocation attack behind the Paxos agreement violation in
    ``examples/paxos_equivocation.py``.

Every draw comes from a private ``random.Random`` seeded from the
nemesis-provided fault RNG at injection time, so attack schedules are
bit-reproducible from the nemesis seed (or the fault's pinned ``rng_key``)
and never perturb the simulator's own RNG stream: a run whose byzantine
windows happen to rewrite nothing is bit-identical to one without them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..runtime.address import Address
from ..runtime.messages import Message
from ..runtime.simulator import Simulator
from .base import WindowFault

__all__ = [
    "MessageMutator",
    "MessageTamper",
    "SpoofSender",
    "EquivocatingNode",
    "MutatingFault",
    "generic_mutator",
]

#: ``mutator(message, rng, variant) -> mutated message or None``.  The
#: variant index selects one of several conflicting rewrites so an
#: equivocating node can feed each destination a different lie; returning
#: ``None`` declines to mutate (the message passes through untouched).
MessageMutator = Callable[[Message, random.Random, int], Optional[Message]]


def generic_mutator(
    message: Message, rng: random.Random, variant: int
) -> Optional[Message]:
    """Protocol-agnostic payload poison: perturb integer payload fields.

    Only plain ``int`` values (not bools, which usually gate control flow)
    are touched, so the mutated message stays structurally valid for every
    bundled protocol — handlers observe a wrong *value*, not a wrong
    *shape*.  Returns ``None`` when the payload holds nothing mutable.
    """
    mutable = [
        key
        for key, value in message.payload.items()
        if isinstance(value, int) and not isinstance(value, bool)
    ]
    if not mutable:
        return None
    key = mutable[rng.randrange(len(mutable))]
    poisoned = dict(message.payload)
    poisoned[key] = int(poisoned[key]) + 1 + variant
    return replace(message, payload=poisoned)


@dataclass
class MutatingFault(WindowFault):
    """Base for byzantine window faults; carries the payload-mutator hook.

    ``mutator`` defaults to ``None``, which means "use the system's
    registered mutator, falling back to :func:`generic_mutator`" — the
    live-run driver fills in the registered hook (see
    ``SystemSpec.message_mutator``) before the nemesis is installed.
    :class:`SpoofSender` inherits the window but forges addresses instead
    of payloads and ignores the mutator.

    Every window draws from a private RNG that :meth:`open` seeds from the
    schedule RNG (after any target draw), so rewrite draws never touch the
    simulator RNG and the benign event schedule is unchanged by a
    byzantine window.
    """

    mutator: Optional[MessageMutator] = None
    #: Restrict tampering to these message types (None = all service
    #: traffic).  Control-plane messages are never touched.
    mtypes: Optional[tuple[str, ...]] = None
    _rng: Optional[random.Random] = field(default=None, init=False, repr=False)

    def resolved_mutator(self) -> MessageMutator:
        return self.mutator if self.mutator is not None else generic_mutator

    def params(self) -> dict[str, Any]:
        # The hook is not serializable; a trace re-resolves it from the
        # system spec.
        params = super().params()
        del params["mutator"]
        return params

    def open(self, sim: Simulator, rng: random.Random) -> bool:
        self._rng = random.Random(rng.getrandbits(64))
        return True

    def targets(self, message: Message) -> bool:
        """Whether the window may touch this message at all."""
        return not message.control and (
            self.mtypes is None or message.mtype in self.mtypes
        )


@dataclass
class MessageTamper(MutatingFault):
    """Mutate payload fields of a fraction of in-flight service messages.

    Each tampered message is rewritten by the mutator with a random variant
    index, so repeated tampering of the same message type yields different
    poison values.  ``probability`` is per transmitted message while the
    window is open.
    """

    name = "message-tamper"

    probability: float = 0.3
    variants: int = 4

    def describe(self) -> dict:
        return {
            "probability": self.probability,
            "mtypes": list(self.mtypes) if self.mtypes else "all",
        }

    def rewrite(self, message: Message, rng: random.Random) -> Message:
        if not self.targets(message) or self._rng.random() >= self.probability:
            return message
        variant = self._rng.randrange(max(1, self.variants))
        mutated = self.resolved_mutator()(message, self._rng, variant)
        if mutated is None:
            return message
        self.affected += 1
        return mutated


@dataclass
class SpoofSender(MutatingFault):
    """Forge the source address of a fraction of service messages.

    Receivers observe traffic attributed to a node that never sent it —
    the provenance attack that flushes out protocols trusting the ``src``
    field for membership or voting decisions.  The mutator hook is unused;
    spoofing rewrites addresses, not payloads.
    """

    name = "spoof-sender"

    probability: float = 0.3
    #: Addresses alive when the window opened: the forgeable sources.
    _pool: list[Address] = field(default_factory=list, init=False, repr=False)

    def open(self, sim: Simulator, rng: random.Random) -> bool:
        addresses = self.alive_addresses(sim)
        if len(addresses) < 2:
            return False
        self._pool = addresses
        return super().open(sim, rng)

    def describe(self) -> dict:
        return {"probability": self.probability, "pool": len(self._pool)}

    def rewrite(self, message: Message, rng: random.Random) -> Message:
        if not self.targets(message):
            return message
        candidates = [addr for addr in self._pool if addr != message.src]
        if not candidates or self._rng.random() >= self.probability:
            return message
        forged = candidates[self._rng.randrange(len(candidates))]
        self.affected += 1
        return replace(message, src=forged)


@dataclass
class EquivocatingNode(MutatingFault):
    """One node's outbound traffic lies differently to every destination.

    The liar is drawn from the alive nodes (``target`` pins it by index
    into the sorted address list; ``spare`` protects the first addresses).
    For each rewritten message the mutator's variant index is the
    destination's rank, so two peers comparing notes on the "same"
    message observe conflicting payloads — equivocation, the byzantine
    behaviour quorum protocols must survive.
    """

    name = "equivocating-node"

    target: Optional[int] = None
    spare: int = 0
    _liar: Optional[Address] = field(default=None, init=False, repr=False)
    #: Destination order fixes which lie each peer hears: the variant
    #: index is the peer's rank, so the same destination always gets
    #: the same (conflicting-with-everyone-else's) payload.
    _peers: list[Address] = field(default_factory=list, init=False, repr=False)

    def open(self, sim: Simulator, rng: random.Random) -> bool:
        addresses = self.alive_addresses(sim, spare=self.spare)
        if not addresses:
            return False
        self._peers = sorted(sim.nodes)
        if self.target is not None:
            self._liar = self._peers[self.target % len(self._peers)]
        else:
            self._liar = addresses[rng.randrange(len(addresses))]
        return super().open(sim, rng)

    def describe(self) -> dict:
        return {"liar": str(self._liar)}

    def rewrite(self, message: Message, rng: random.Random) -> Message:
        if message.src != self._liar or not self.targets(message):
            return message
        try:
            variant = self._peers.index(message.dst)
        except ValueError:
            variant = 0
        mutated = self.resolved_mutator()(message, self._rng, variant)
        if mutated is None:
            return message
        self.affected += 1
        return mutated
