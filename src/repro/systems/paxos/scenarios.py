"""The Paxos fault-injection scenario of Figure 13 (Section 5.4.2).

Three nodes A, B, C each play all Paxos roles.  In the first round node C
is disconnected and A gets value 0 chosen with promises/accepts from A and B
(the Learn from A to B is lost).  In the second round node A is disconnected
and C is reachable again; B (or C) runs a new round.  With ``bug1`` the new
leader builds its Accept from the wrong promise and value 1 gets chosen,
violating agreement; ``bug2`` loses B's promise across a reset with the same
effect.  The scenario driver schedules the partitions, proposals and resets
and is reused by the execution-steering benchmark (Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ...core.controller import CrystalBallConfig, CrystalBallController, Mode, attach_crystalball
from ...core.monitor import LivePropertyMonitor
from ...properties import SafetyProperty
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address, make_addresses
from ...runtime.network import NetworkModel
from ...runtime.simulator import Simulator
from .properties import ALL_PROPERTIES
from .protocol import Paxos, PaxosConfig


@dataclass
class PaxosRunResult:
    """Outcome of one scripted Figure 13 run."""

    violation_occurred: bool
    chosen_values: set[int]
    steering_filters_triggered: int
    isc_blocks: int
    violations_predicted: int

    @property
    def avoided_by_steering(self) -> bool:
        return not self.violation_occurred and self.steering_filters_triggered > 0

    @property
    def avoided_by_isc(self) -> bool:
        return (not self.violation_occurred
                and self.steering_filters_triggered == 0
                and self.isc_blocks > 0)


@dataclass
class Figure13Scenario:
    """Driver for the Paxos bug1/bug2 runs of Figures 13 and 14."""

    bug: int = 1
    inter_round_delay: float = 30.0
    crystalball_mode: Mode = Mode.OFF
    seed: int = 0
    reset_b: Optional[bool] = None

    addresses: list[Address] = field(default_factory=lambda: make_addresses(3, start=1))

    def __post_init__(self) -> None:
        if self.bug not in (1, 2):
            raise ValueError("bug must be 1 or 2")
        if self.reset_b is None:
            # bug2 is exposed by resetting node B between the rounds.
            self.reset_b = self.bug == 2

    @property
    def properties(self) -> Sequence[SafetyProperty]:
        return ALL_PROPERTIES

    def build_protocol(self) -> Paxos:
        config = PaxosConfig(peers=tuple(self.addresses),
                             inject_bug1=self.bug == 1,
                             inject_bug2=self.bug == 2)
        return Paxos(config)

    def run(self) -> PaxosRunResult:
        """Run one live scenario; returns what happened.

        Round 1: node C is disconnected and A gets value 0 chosen with the
        help of B.  Between the rounds C becomes reachable again (there is a
        short window in which checkpoints can be exchanged) and then A is
        disconnected; for ``bug2`` node B additionally resets.  Round 2: the
        second leader (B for ``bug1``, C for ``bug2``) proposes value 1.
        With the injected bug the run chooses two different values unless
        CrystalBall's execution steering or immediate safety check prevents
        it.
        """
        _, _, result = self._execute()
        return result

    def run_report(self):
        """Run the scenario and return a :class:`repro.api.RunReport`."""
        import time

        from ...api.experiment import build_run_report

        started = time.perf_counter()
        sim, pieces, result = self._execute()
        report = build_run_report(
            system="paxos",
            scenario=f"figure13-bug{self.bug}",
            mode=self.crystalball_mode,
            seed=self.seed,
            sim=sim,
            controllers=pieces["controllers"],
            monitor=pieces["monitor"],
            wall_clock_seconds=time.perf_counter() - started,
            outcome={
                "bug": self.bug,
                "violation_occurred": result.violation_occurred,
                "chosen_values": sorted(result.chosen_values),
                "avoided_by_steering": result.avoided_by_steering,
                "avoided_by_isc": result.avoided_by_isc,
            },
        )
        return report

    def _execute(self):
        a, b, c = self.addresses
        network = NetworkModel(default_rtt=0.05, jitter=0.0, rst_loss_probability=0.0)
        sim = Simulator(self.build_protocol, network, seed=self.seed,
                        tick_interval=3.0)
        for addr in self.addresses:
            sim.add_node(addr)

        controllers: dict[Address, CrystalBallController] = {}
        if self.crystalball_mode is not Mode.OFF:
            config = CrystalBallConfig(
                mode=self.crystalball_mode,
                search_budget=SearchBudget(max_states=1500, max_depth=12),
                transition=TransitionConfig(enable_resets=False),
            )
            controllers = attach_crystalball(sim, self.properties, config=config)

        monitor = LivePropertyMonitor(self.properties).install(sim)

        second_leader = b if self.bug == 1 else c

        # Round 1: C is disconnected; A proposes value 0.
        network.isolate(c, [a, b])
        sim.schedule_app(1.0, a, "propose", {"value": 0})
        # The client submits the value for the second round early, so the
        # intent is part of the leader's checkpointed state.
        sim.schedule_app(2.0, second_leader, "submit", {"value": 1})
        sim.run(until=10.0)

        # Between rounds: C becomes reachable again; after a short window in
        # which checkpoints can be exchanged, A gets disconnected.  For the
        # bug2 scenario node B resets right at the start of that window, so
        # its (lost) acceptor state is what the neighbourhood snapshots see.
        network.heal_all()
        reconnect_window = min(8.0, max(2.0, self.inter_round_delay / 2))
        sim.schedule_at(sim.now + reconnect_window,
                        lambda s: s.network.isolate(a, [b, c]))
        if self.reset_b:
            sim.schedule_reset(sim.now + 1.0, b)
        start_second = sim.now + max(self.inter_round_delay, reconnect_window + 2.0)
        sim.schedule_app(start_second, second_leader, "propose", {"value": 1})
        sim.run(until=start_second + 40.0)

        chosen: set[int] = set()
        for addr in self.addresses:
            node_state = sim.nodes[addr].state
            chosen |= set(node_state.chosen_values)

        filters_triggered = sum(ctrl.stats.filters_triggered
                                for ctrl in controllers.values())
        isc_blocks = sum(ctrl.stats.isc_blocks for ctrl in controllers.values())
        predicted = sum(ctrl.stats.violations_predicted
                        for ctrl in controllers.values())
        result = PaxosRunResult(
            violation_occurred=len(chosen) > 1 or monitor.inconsistent_states > 0,
            chosen_values=chosen,
            steering_filters_triggered=filters_triggered,
            isc_blocks=isc_blocks,
            violations_predicted=predicted,
        )
        return sim, {"controllers": controllers, "monitor": monitor}, result
