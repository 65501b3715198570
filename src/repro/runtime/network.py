"""Network model for the live runtime.

The paper evaluates CrystalBall on ModelNet with a 5,000-node INET topology:
wide-area latencies, random cross-traffic loss, and constrained access
links.  :class:`NetworkModel` captures the properties the experiments depend
on — per-pair one-way latency, per-link loss probability, and explicit
partitions (used to script the Paxos scenarios of Figure 13).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .address import Address

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> runtime)
    from ..faults.base import MessageInterceptor
    from .messages import Message


@dataclass
class NetworkModel:
    """Latency / loss / partition model used by the simulator.

    Parameters
    ----------
    loss_fn:
        Optional callable ``(src, dst, rng) -> loss probability`` for UDP
        messages (TCP is modelled as reliable while the connection is up).
    default_rtt:
        Mean round-trip time; one-way latencies are drawn uniformly around
        its half, within ``jitter``.  The paper's INET topology averages
        130 ms.
    """

    loss_fn: Optional[Callable[[Address, Address, random.Random], float]] = None
    default_rtt: float = 0.130
    jitter: float = 0.2
    #: Cut pairs, each with its count of outstanding cuts, so overlapping
    #: partitions (two fault windows cutting a shared link) compose: a link
    #: is only restored when every cut of it has been healed.
    partitions: dict[frozenset[Address], int] = field(default_factory=dict)
    #: probability that a TCP RST emitted by a resetting node is lost, which
    #: is precisely the trigger of the RandTree bug in Figure 2.
    rst_loss_probability: float = 0.2
    #: Fault-injection interceptors (see :mod:`repro.faults`): each may
    #: transform the delivery plan of every transmitted message.
    interceptors: list["MessageInterceptor"] = field(default_factory=list)

    def latency(self, src: Address, dst: Address, rng: random.Random) -> float:
        """One-way latency from ``src`` to ``dst``."""
        if src == dst:
            return 1e-4
        base = self.default_rtt / 2.0
        return max(1e-4, base * (1.0 + rng.uniform(-self.jitter, self.jitter)))

    def loss_probability(self, src: Address, dst: Address, rng: random.Random) -> float:
        """Cross-traffic loss probability for a packet from ``src`` to ``dst``."""
        if self.loss_fn is not None:
            return min(1.0, max(0.0, self.loss_fn(src, dst, rng)))
        # ModelNet cross-traffic emulation: uniform in [0.001, 0.005] per link.
        return rng.uniform(0.001, 0.005)

    # -- fault interceptors -----------------------------------------------------

    def plan_deliveries(self, message: "Message", latency: float,
                        rng: random.Random) -> list[float]:
        """Delivery plan for one transmitted message.

        The plan is a list of delivery latencies — one entry per copy that
        will arrive (an empty plan drops the message).  Without installed
        interceptors the plan is just ``[latency]`` and no RNG state is
        consumed, so fault-free runs are bit-identical to the pre-fault
        runtime.
        """
        plan = [latency]
        for interceptor in self.interceptors:
            plan = interceptor.transform(message, plan, rng)
        return plan

    def rewrite_message(self, message: "Message",
                        rng: random.Random) -> "Message":
        """Give every interceptor a chance to replace the message content.

        Byzantine faults (tampering, spoofing, equivocation) act here; the
        default :meth:`~repro.faults.base.MessageInterceptor.rewrite` is
        the identity and consumes no RNG state, so benign fault schedules
        are unchanged.
        """
        for interceptor in self.interceptors:
            message = interceptor.rewrite(message, rng)
        return message

    # -- partitions -------------------------------------------------------------

    def partition(self, a: Address, b: Address) -> None:
        """Block all traffic between ``a`` and ``b`` (both directions).

        Cuts are reference-counted: cutting the same pair twice (two
        overlapping fault windows) requires two heals to restore it.
        """
        pair = frozenset((a, b))
        self.partitions[pair] = self.partitions.get(pair, 0) + 1

    def heal(self, a: Address, b: Address) -> None:
        """Undo one cut of the pair; restores the link when no cut remains."""
        pair = frozenset((a, b))
        remaining = self.partitions.pop(pair, 0) - 1
        if remaining > 0:
            self.partitions[pair] = remaining

    def heal_all(self) -> None:
        """Remove every partition regardless of outstanding cuts."""
        self.partitions.clear()

    def isolate(self, node: Address, others: Iterable[Address]) -> None:
        """Partition ``node`` from every address in ``others``."""
        for other in others:
            if other != node:
                self.partition(node, other)

    def reachable(self, src: Address, dst: Address) -> bool:
        """True unless a partition blocks the pair."""
        return frozenset((src, dst)) not in self.partitions
