"""Churn and failure injection.

The execution-steering evaluation (Section 5.4.1) runs "a live churn
scenario in which one participant per minute leaves and enters the system on
average".  :class:`ChurnProcess` reproduces that workload: at exponentially
distributed intervals it picks a random node and resets it (leave + rejoin).
Crashes with a later revival are the nemesis's ``CrashRestart`` fault.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .address import Address
from .simulator import Simulator


@dataclass
class ChurnProcess:
    """Injects resets into a running simulation.

    Parameters
    ----------
    mean_interval:
        Mean time between churn events in simulated seconds (60 s reproduces
        the paper's one-event-per-minute scenario).
    """

    nodes: list[Address]
    mean_interval: float = 60.0
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
        self._rng.random()  # unused; kept so seeded schedules stay the same
        sim.schedule_reset(sim.now, target)
        sim.schedule_at(sim.now + self._next_interval(), self._fire)
