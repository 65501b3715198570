"""Churn and failure injection.

The execution-steering evaluation (Section 5.4.1) runs "a live churn
scenario in which one participant per minute leaves and enters the system on
average".  :class:`ChurnProcess` reproduces that workload: at exponentially
distributed intervals it picks a random node and resets it (leave + rejoin),
optionally mixing in fail-stop crashes and later revivals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .address import Address
from .simulator import Simulator


@dataclass
class ChurnProcess:
    """Injects resets (and optionally crashes) into a running simulation.

    Parameters
    ----------
    mean_interval:
        Mean time between churn events in simulated seconds (60 s reproduces
        the paper's one-event-per-minute scenario).
    reset_probability:
        Probability that a churn event is a silent reset; the remainder are
        fail-stop crashes followed by a revival after ``downtime``.
    """

    nodes: list[Address]
    mean_interval: float = 60.0
    reset_probability: float = 1.0
    downtime: float = 30.0
    seed: int = 0
    stop_after: Optional[float] = None

    events_injected: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("churn needs at least one node")
        if self.mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        self._rng = random.Random(self.seed)

    def install(self, sim: Simulator) -> None:
        """Schedule the first churn event on ``sim``."""
        sim.schedule_at(sim.now + self._next_interval(), self._fire)

    def _next_interval(self) -> float:
        return self._rng.expovariate(1.0 / self.mean_interval)

    def _fire(self, sim: Simulator) -> None:
        if self.stop_after is not None and sim.now >= self.stop_after:
            return
        target = self._rng.choice(self.nodes)
        self.events_injected += 1
        if self._rng.random() < self.reset_probability:
            sim.schedule_reset(sim.now, target)
        else:
            sim.crash_node(target)
            sim.schedule_at(sim.now + self.downtime,
                            lambda s, addr=target: s.revive_node(addr))
        sim.schedule_at(sim.now + self._next_interval(), self._fire)
