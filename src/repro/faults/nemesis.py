"""The :class:`Nemesis`: a deterministic, seeded fault scheduler.

The nemesis owns *when* faults fire.  Installed on a
:class:`~repro.runtime.simulator.Simulator`, it walks each fault's timeline
(one-shot ``at`` or periodic ``every``), calls
:meth:`~repro.faults.base.Fault.inject`, schedules the matching
:meth:`~repro.faults.base.Fault.heal` after ``duration``, and records every
event as a :class:`~repro.faults.base.FaultRecord`.  Each fault draws its
targets from its own ``random.Random`` seeded from ``(seed, index, name)``
— or from the fault's explicit ``rng_key`` when set — so two runs with the
same nemesis seed produce the identical fault schedule — the property the
determinism tests and the model checker's predicted-vs-avoided comparisons
rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..runtime.simulator import Simulator
from .base import Fault, FaultRecord

#: Cap on serialized schedule entries in :meth:`Nemesis.report` so a long
#: run's JSON report stays bounded.
_MAX_REPORTED_EVENTS = 200


@dataclass
class Nemesis:
    """Schedules a set of faults into a simulator and accounts for them."""

    faults: Sequence[Fault]
    seed: int = 0
    #: Quiet period before the first injection (lets the system bootstrap).
    start_after: float = 0.0
    #: No injections at or after this simulated time (heals still run).
    stop_after: Optional[float] = None

    records: list[FaultRecord] = field(default_factory=list, init=False)
    installed: bool = field(default=False, init=False)

    def install(self, sim: Simulator) -> "Nemesis":
        """Schedule every fault's first firing; returns self for chaining."""
        if self.installed:
            raise RuntimeError("nemesis is already installed")
        self.installed = True
        for index, fault in enumerate(self.faults):
            rng = random.Random(
                fault.rng_key
                if fault.rng_key is not None
                else f"{self.seed}/{index}/{fault.name}"
            )
            first = fault.at if fault.at is not None else fault.every
            sim.schedule_at(
                sim.now + self.start_after + first,
                lambda s, f=fault, r=rng: self._fire(s, f, r),
            )
        return self

    # -- scheduling -----------------------------------------------------------

    def _fire(self, sim: Simulator, fault: Fault, rng: random.Random) -> None:
        if self.stop_after is not None and sim.now >= self.stop_after:
            return
        detail = fault.inject(sim, rng)
        if detail is None:
            self.records.append(FaultRecord(sim.now, fault.name, "skip"))
            self._observe(sim, fault.name, "skip", {})
        else:
            self.records.append(FaultRecord(sim.now, fault.name, "inject", detail))
            self._observe(sim, fault.name, "inject", detail)
            if fault.duration is not None:
                sim.schedule_at(
                    sim.now + fault.duration, lambda s, f=fault: self._heal(s, f)
                )
        if fault.every is not None:
            sim.schedule_at(
                sim.now + fault.every,
                lambda s, f=fault, r=rng: self._fire(s, f, r),
            )

    def _heal(self, sim: Simulator, fault: Fault) -> None:
        detail = fault.heal(sim)
        if detail is not None:
            self.records.append(FaultRecord(sim.now, fault.name, "heal", detail))
            self._observe(sim, fault.name, "heal", detail)

    def _observe(self, sim: Simulator, name: str, action: str, detail: dict) -> None:
        if sim.obs.tracer is not None:
            sim.obs.tracer.record(
                "fault", sim.now, fault=name, action=action, detail=dict(detail)
            )

    def teardown(self, sim: Simulator) -> None:
        """Undo windows still open when the run ends.

        Heals scheduled past the horizon never execute; this strips their
        residue (interceptors, cut links) so a caller-supplied
        :class:`~repro.runtime.network.NetworkModel` comes back clean and
        can be reused by the next experiment.
        """
        for fault in self.faults:
            fault.cleanup(sim)

    # -- accounting -----------------------------------------------------------

    @property
    def faults_injected(self) -> int:
        return sum(1 for record in self.records if record.kind == "inject")

    def counts_by_type(self) -> dict[str, dict[str, int]]:
        """Per-fault-type ``{injected, healed, skipped}`` breakdown."""
        breakdown: dict[str, dict[str, int]] = {}
        keys = {"inject": "injected", "heal": "healed", "skip": "skipped"}
        for record in self.records:
            entry = breakdown.setdefault(
                record.fault, {"injected": 0, "healed": 0, "skipped": 0}
            )
            entry[keys[record.kind]] += 1
        return breakdown

    def report(self) -> dict[str, Any]:
        """JSON-ready summary for :class:`~repro.api.report.RunReport`."""
        events = [record.to_dict() for record in self.records]
        truncated = max(0, len(events) - _MAX_REPORTED_EVENTS)
        if truncated:
            events = events[:_MAX_REPORTED_EVENTS]
        return {
            "seed": self.seed,
            "faults_injected": self.faults_injected,
            "by_type": self.counts_by_type(),
            "schedule": events,
            "schedule_truncated": truncated,
        }
