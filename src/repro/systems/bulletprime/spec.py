"""Bullet' registration with the unified experiment API."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...api.registry import ScenarioSpec, SystemSpec, register_system
from ...faults.types import Partition
from ...mc.global_state import GlobalState
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address
from ...workload import TrafficSpec, WorkloadSpec
from .properties import ALL_PROPERTIES
from .protocol import (
    BLOCK,
    DIFF_TIMER,
    DRAIN_TIMER,
    REQUEST_TIMER,
    BulletConfig,
    BulletPrime,
)
from .scenarios import build_mesh


def _protocol_factory(addresses: Sequence[Address],
                      options: Mapping[str, Any]):
    mesh = build_mesh(addresses,
                      degree=int(options.get("mesh_degree", 4)),
                      seed=int(options.get("mesh_seed", 0)))
    config = BulletConfig(
        source=addresses[0],
        mesh=mesh,
        block_count=int(options.get("block_count", 16)),
        block_size=int(options.get("block_size", 4096)),
        fix_shadow_map=bool(options.get("fix_shadow_map", True)),
    )
    return lambda: BulletPrime(config)


def _make_fetch(rng, key, addresses):
    """One on-demand block fetch from a random non-source member.

    The keyed block index is resolved against the configured block count
    inside the protocol's ``fetch`` handler, so one workload definition
    works for any ``block_count`` option.
    """
    requesters = addresses[1:] or addresses
    origin = requesters[int(rng.random() * len(requesters)) % len(requesters)]
    return origin, "fetch", {"key": key}


def _collect(sim) -> dict:
    # The source starts complete (time 0.0).
    completed = {str(addr): (0.0 if node.state.is_source
                             else node.state.completed_at)
                 for addr, node in sim.nodes.items()
                 if node.state.completed_at is not None or node.state.is_source}
    return {"nodes_completed": len(completed),
            "total_nodes": len(sim.nodes),
            "completion_times": completed,
            "service_bytes": sim.total_service_bytes()}


def _download_outcome(report) -> dict:
    """One CDF series of Figure 17, plus what the checkpoints cost."""
    done = report.outcome
    return {**done,
            "completion_fraction": (done["nodes_completed"]
                                    / done["total_nodes"]),
            "duration": report.simulated_seconds,
            "checkpoint_bytes": report.checkpoint_bytes()}


def congested_snapshot(*, fixed: bool = False):
    """Two-node sender/receiver snapshot with an almost-full send queue —
    the state from which the shadow-file-map inconsistency is predictable."""
    sender, receiver = Address(1), Address(2)
    config = BulletConfig(source=sender,
                          mesh={sender: (receiver,), receiver: (sender,)},
                          block_count=8, send_queue_capacity=64,
                          fix_shadow_map=fixed)
    protocol = BulletPrime(config)
    sender_state = protocol.initial_state(sender)
    receiver_state = protocol.initial_state(receiver)
    sender_state.queue_bytes[receiver] = 60
    snapshot = GlobalState.from_snapshot(
        {sender: sender_state, receiver: receiver_state},
        timers={sender: {DIFF_TIMER, REQUEST_TIMER, DRAIN_TIMER},
                receiver: {DIFF_TIMER, REQUEST_TIMER, DRAIN_TIMER}})
    return protocol, snapshot


SPEC = register_system(SystemSpec(
    name="bulletprime",
    summary="Bullet' file-distribution mesh (Section 5.2.3)",
    protocol_factory=_protocol_factory,
    options=("mesh_degree", "mesh_seed", "block_count", "block_size",
             "fix_shadow_map"),
    properties=tuple(ALL_PROPERTIES),
    # The historical property ids predate the "bulletprime" system name.
    transition_factory=lambda: TransitionConfig(enable_resets=False),
    scenarios={
        "download": ScenarioSpec(
            name="download",
            description="Figure 17 download experiment (completion CDF, "
                        "checkpoint overhead)",
            nodes=8, duration=400.0, network={"rtt": 0.13},
            outcome=_download_outcome,
        ),
        "shadow-map": ScenarioSpec(
            name="shadow-map",
            description="Consequence prediction of the shadow-file-map "
                        "inconsistency from a congested two-node snapshot",
            build=congested_snapshot, max_states=4000, max_depth=6,
            resets=False,
        ),
        "mesh-partition": ScenarioSpec(
            name="mesh-partition",
            description="Live download under recurring healed partitions of "
                        "the distribution mesh (the source is spared)",
            faults_factory=lambda duration, addrs: [
                # spare=1 keeps the source on the majority side.
                Partition(every=duration / 4, duration=duration / 8,
                          spare=1),
            ],
            nodes=8, duration=300.0, options={"block_count": 8},
        ),
        "slow-links": ScenarioSpec(
            name="slow-links",
            description="Live download through latency-spike windows and "
                        "duplicated blocks",
            faults=("delay", "duplicate"), nodes=8, duration=300.0,
            options={"block_count": 8},
        ),
    },
    workloads={
        "fetch": WorkloadSpec(
            name="fetch",
            description="On-demand block fetches from random mesh members "
                        "(explicit RequestBlock to the source, answered "
                        "with the Block transfer)",
            make_request=_make_fetch,
            traffic=TrafficSpec(rate=20.0, burst=4, keys=16,
                                key_distribution="uniform", start=10.0),
            completion_mtypes=frozenset({BLOCK}),
        ),
    },
    default_nodes=8,
    default_duration=300.0,
    join_call=None,
    default_churn_interval=None,
    search_budget=SearchBudget(max_states=200, max_depth=4),
    collect=_collect,
))
