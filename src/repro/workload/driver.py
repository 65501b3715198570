"""Open-loop request generation against a live simulation.

:class:`OpenLoopDriver` injects requests at the configured rate whether or
not the system keeps up — the open-loop discipline load generators use to
avoid coordinated omission.  One self-re-arming wakeup per burst keeps the
scheduler cost O(bursts), not O(requests): each wakeup injects ``burst``
application calls inline (no heap entry per request) and re-arms a single
callback for the next batch.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..runtime.address import Address
from ..runtime.events import Event, MessageEvent
from ..runtime.simulator import SimNode, Simulator
from .spec import KeySampler, WorkloadSpec


class OpenLoopDriver:
    """Drives one workload's request stream through a simulator."""

    def __init__(
        self,
        spec: WorkloadSpec,
        addresses: Sequence[Address],
        *,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.traffic = spec.traffic
        self.addresses = list(addresses)
        # String seeding is deterministic (hashed with SHA-512 internally),
        # unlike hash()-based seeding which varies with PYTHONHASHSEED.
        self.rng = random.Random(f"{seed}:workload:{spec.name}")
        self.sampler = KeySampler(spec.traffic)

        self.requests_injected = 0
        self.requests_completed = 0
        self.requests_skipped = 0
        self._end_time: Optional[float] = None

    # ------------------------------------------------------------- wiring

    def install(self, sim: Simulator) -> "OpenLoopDriver":
        """Arm the generator; the stream opens ``traffic.start`` seconds
        from now and closes after ``traffic.duration`` (when set)."""
        if self.traffic.duration is not None:
            self._end_time = (sim.now + self.traffic.start
                              + self.traffic.duration)
        if self.spec.completion_mtypes:
            sim.add_observer(self._observe)
        sim.schedule_at(sim.now + self.traffic.start + self.traffic.interval,
                        self._burst)
        return self

    # ------------------------------------------------------------ driving

    def _burst(self, sim: Simulator) -> None:
        if self._end_time is not None and sim.now > self._end_time:
            return  # stream closed: stop re-arming
        for _ in range(self.traffic.burst):
            key = self.sampler.sample(self.rng)
            target, call, payload = self.spec.make_request(
                self.rng, key, self.addresses)
            node = sim.nodes.get(target)
            if node is None or not node.alive:
                self.requests_skipped += 1
                continue
            sim.inject_app(target, call, payload)
            self.requests_injected += 1
        sim.schedule_at(sim.now + self.traffic.interval, self._burst)

    def _observe(self, sim: Simulator, node: SimNode, event: Event) -> None:
        if (isinstance(event, MessageEvent)
                and event.message.mtype in self.spec.completion_mtypes):
            self.requests_completed += 1

    # ---------------------------------------------------------- reporting

    def report(self) -> dict:
        """JSON-ready summary merged into ``RunReport.workload``."""
        return {
            "name": self.spec.name,
            "requests_injected": self.requests_injected,
            "requests_completed": self.requests_completed,
            "requests_skipped": self.requests_skipped,
            "traffic": self.traffic.to_dict(),
        }
