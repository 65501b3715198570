"""Paxos registration with the unified experiment API."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Mapping, Optional, Sequence

from ...api.registry import ScenarioSpec, SystemSpec, register_system
from ...faults.types import CrashRestart, MessageDelay
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address
from ...runtime.messages import Message
from ...workload import TrafficSpec, WorkloadSpec
from .properties import ALL_PROPERTIES
from .protocol import Paxos, PaxosConfig


def _protocol_factory(addresses: Sequence[Address],
                      options: Mapping[str, Any]):
    bug = int(options.get("bug", 0))
    config = PaxosConfig(peers=tuple(addresses),
                         inject_bug1=bug == 1,
                         inject_bug2=bug == 2)
    return lambda: Paxos(config)


def _schedule(sim, addresses: Sequence[Address],
              options: Mapping[str, Any]) -> None:
    """Generic consensus workload: two competing proposals.

    The first node proposes value 0 immediately; the last node submits and
    later proposes value 1, forcing a second round.  With no injected bug
    the agreement property holds throughout.
    """
    first, last = addresses[0], addresses[-1]
    sim.schedule_app(1.0, first, "propose", {"value": options.get("value0", 0)})
    if len(addresses) > 1:
        sim.schedule_app(2.0, last, "submit", {"value": options.get("value1", 1)})
        sim.schedule_app(float(options.get("second_round_at", 30.0)),
                         last, "propose", {"value": options.get("value1", 1)})


def _collect(sim) -> dict:
    chosen: set[int] = set()
    per_node: dict[str, list[int]] = {}
    for addr, node in sim.nodes.items():
        values = sorted(node.state.chosen_values)
        per_node[str(addr)] = values
        chosen |= set(values)
    return {"chosen_values": sorted(chosen),
            "chosen_by_node": per_node,
            "agreement_held": len(chosen) <= 1}


#: Poison values injected by the byzantine mutator sit far outside the
#: honest proposal range (0/1), so an attack-chosen value is unmistakable
#: in reports.
_POISON_BASE = 600


def _message_mutator(message: Message, rng: random.Random,
                     variant: int) -> Optional[Message]:
    """Protocol-aware byzantine rewrite (see :mod:`repro.faults.byzantine`).

    A tampered/equivocated ``Promise`` fabricates a sky-high accepted
    round carrying a poisoned value — a leader that trusts the lie is
    forced (by the Paxos value-selection rule itself) to propose the
    poison.  ``Accept``/``Learn`` rewrites replace the value outright, so
    an equivocating acceptor tells every peer a different decision.  The
    ``variant`` index parameterizes the lie; per-destination variants are
    what make the lies *conflicting*.
    """
    payload = dict(message.payload)
    if message.mtype == "Promise" and "accepted_round" in payload:
        payload["accepted_round"] = (10 ** 6 + variant, 0)
        payload["accepted_value"] = _POISON_BASE + variant
    elif message.mtype in ("Accept", "Learn") and "value" in payload:
        payload["value"] = _POISON_BASE + variant
    else:
        return None
    return replace(message, payload=payload)


def _figure13(bug: int, description: str) -> ScenarioSpec:
    """The fault-injection schedule of Figure 13 (Section 5.4.2), repeated
    for the steering results of Figure 14.

    Three nodes A, B, C each play all Paxos roles.  Round 1: C is
    disconnected and A gets value 0 chosen with the help of B.  Between the
    rounds C becomes reachable again — a short window in which checkpoints
    can be exchanged — and then A is disconnected; for ``bug2`` node B
    additionally resets (``reset_b``).  Round 2: the second leader (B for
    ``bug1``, C for ``bug2``) proposes value 1 ``inter_round_delay``
    seconds later.  With the injected bug the run chooses two different
    values unless execution steering or the immediate safety check
    prevents it.
    """

    def drive(sim, addresses: Sequence[Address],
              options: Mapping[str, Any]) -> None:
        a, b, c = addresses
        second_leader = b if bug == 1 else c
        sim.network.isolate(c, [a, b])
        sim.schedule_app(1.0, a, "propose", {"value": 0})
        # The client submits the value for the second round early, so the
        # intent is part of the leader's checkpointed state.
        sim.schedule_app(2.0, second_leader, "submit", {"value": 1})
        sim.run(until=10.0)

        # B resets right at the start of the reconnect window, so its
        # (lost) acceptor state is what the neighbourhood snapshots see.
        sim.network.heal_all()
        delay = options["inter_round_delay"]
        reconnect_window = min(8.0, max(2.0, delay / 2))
        sim.schedule_at(sim.now + reconnect_window,
                        lambda s: s.network.isolate(a, [b, c]))
        if options["reset_b"]:
            sim.schedule_reset(sim.now + 1.0, b)
        start_second = sim.now + max(delay, reconnect_window + 2.0)
        sim.schedule_app(start_second, second_leader, "propose", {"value": 1})
        sim.run(until=start_second + 40.0)

    def outcome(report) -> dict:
        chosen = report.outcome["chosen_values"]
        violated = len(chosen) > 1 or report.live_inconsistent_states() > 0
        steered = report.total_filter_triggers() > 0
        return {
            "bug": bug,
            "violation_occurred": violated,
            "chosen_values": chosen,
            "avoided_by_steering": not violated and steered,
            "avoided_by_isc": (not violated and not steered
                               and report.total_isc_blocks() > 0),
        }

    return ScenarioSpec(
        name=f"figure13-bug{bug}", description=description,
        nodes=3, max_states=1500, max_depth=12, tick_interval=3.0,
        network={"rtt": 0.05, "jitter": 0.0, "rst_loss": 0.0},
        # bug2 is exposed by resetting node B between the rounds.
        options={"bug": bug, "inter_round_delay": 30.0, "reset_b": bug == 2},
        drive=drive, outcome=outcome)


def _make_submission(rng, key, addresses):
    """Submit a candidate value to a random node's proposer role."""
    target = addresses[int(rng.random() * len(addresses)) % len(addresses)]
    return target, "submit", {"value": int(key)}


SPEC = register_system(SystemSpec(
    name="paxos",
    summary="Single-instance Paxos (Section 5.4.2): injected consensus bugs",
    protocol_factory=_protocol_factory,
    options=("bug", "value0", "value1", "second_round_at"),
    properties=tuple(ALL_PROPERTIES),
    transition_factory=lambda: TransitionConfig(enable_resets=False),
    scenarios={
        "figure13-bug1": _figure13(
            1, "Figure 13 fault-injection schedule with bug1 "
               "(wrong promise picked by the second leader)"),
        "figure13-bug2": _figure13(
            2, "Figure 13 fault-injection schedule with bug2 "
               "(promises lost across a reset)"),
        "leader-crash": ScenarioSpec(
            name="leader-crash",
            description="Live consensus where the first proposer fail-stops "
                        "mid-round and restarts with fresh state before the "
                        "competing proposal",
            faults_factory=lambda duration, addrs: [
                CrashRestart(at=duration * 0.1, duration=duration * 0.3,
                             target=addrs[0], spare=0),
            ],
            nodes=3, duration=60.0,
        ),
        "partition-quorum": ScenarioSpec(
            name="partition-quorum",
            description="Live consensus under recurring partitions that "
                        "strand a minority, plus delayed messages between "
                        "rounds",
            faults=("partition",),
            faults_factory=lambda duration, addrs: [
                MessageDelay(every=duration / 3, duration=duration / 6,
                             min_extra=0.5, max_extra=2.0),
            ],
            nodes=5, duration=60.0,
        ),
    },
    workloads={
        "submissions": WorkloadSpec(
            name="submissions",
            description="Open-loop value submissions to random acceptors "
                        "(repeated proposals stress the promise paths)",
            make_request=_make_submission,
            traffic=TrafficSpec(rate=20.0, burst=5, keys=256,
                                key_distribution="uniform", start=5.0),
        ),
    },
    default_nodes=3,
    default_duration=60.0,
    tick_interval=5.0,
    join_call=None,
    default_churn_interval=None,
    search_budget_factory=lambda: SearchBudget(max_states=500, max_depth=8),
    schedule=_schedule,
    collect=_collect,
    message_mutator=_message_mutator,
))
