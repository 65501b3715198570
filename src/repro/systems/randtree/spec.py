"""RandTree registration with the unified experiment API."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...api.registry import ScenarioSpec, SystemSpec, register_system
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address
from ...workload import TrafficSpec, WorkloadSpec
from .properties import ALL_PROPERTIES
from .protocol import PROBE_REPLY, RandTree, RandTreeConfig
from .scenarios import Figure2Scenario, Figure9Scenario

#: RandTreeConfig fields accepted as experiment options.
_CONFIG_OPTIONS = ("max_children", "join_retry_period", "recovery_period",
                   "fix_update_sibling", "fix_new_root_check",
                   "fix_clear_siblings", "fix_recovery_timer")


def _protocol_factory(addresses: Sequence[Address],
                      options: Mapping[str, Any]):
    kwargs = {name: options[name] for name in _CONFIG_OPTIONS
              if name in options}
    if options.get("fixed"):
        kwargs.update(fix_update_sibling=True, fix_new_root_check=True,
                      fix_clear_siblings=True, fix_recovery_timer=True)
    bootstrap_index = int(options.get("bootstrap_index", 0))
    config = RandTreeConfig(bootstrap=(addresses[bootstrap_index],), **kwargs)
    return lambda: RandTree(config)


def _make_probe(rng, key, addresses):
    """One liveness probe of a keyed member issued from a random member."""
    origin = addresses[int(rng.random() * len(addresses)) % len(addresses)]
    target = addresses[key % len(addresses)]
    if target == origin:
        target = addresses[(key + 1) % len(addresses)]
    return origin, "probe", {"target": target}


SPEC = register_system(SystemSpec(
    name="randtree",
    summary="Random overlay tree (Section 1.2): the paper's running example",
    protocol_factory=_protocol_factory,
    options=_CONFIG_OPTIONS + ("fixed", "bootstrap_index"),
    properties=tuple(ALL_PROPERTIES),
    transition_factory=lambda: TransitionConfig(enable_resets=True,
                                                max_resets_per_node=1),
    scenarios={
        "figure2": ScenarioSpec(
            name="figure2",
            description="Consequence prediction from the three-node Figure 2 "
                        "state (children/siblings inconsistency)",
            build=Figure2Scenario.build, max_states=6000, max_depth=9,
        ),
        "figure9": ScenarioSpec(
            name="figure9",
            description="Consequence prediction from the five-node Figure 9 "
                        "state (root appears as a child)",
            build=Figure9Scenario.build, max_states=6000, max_depth=9,
        ),
        "partition-recovery": ScenarioSpec(
            name="partition-recovery",
            description="Live run under recurring healed partitions: the "
                        "tree splits, elects spurious roots and must "
                        "re-merge (Figure 2 conditions at scale)",
            faults=("partition",), nodes=6, duration=240.0,
            options={"bootstrap_index": 1, "max_children": 2},
        ),
        "flaky-network": ScenarioSpec(
            name="flaky-network",
            description="Live run under latency spikes, duplicated service "
                        "messages and a flapping link",
            faults=("delay", "duplicate", "link-flap"),
            nodes=6, duration=240.0,
        ),
    },
    workloads={
        "probes": WorkloadSpec(
            name="probes",
            description="Open-loop liveness probes between random members "
                        "(answered with the recovery path's ProbeReply)",
            make_request=_make_probe,
            traffic=TrafficSpec(rate=100.0, burst=10, keys=1024,
                                key_distribution="uniform", start=60.0),
            completion_mtypes=frozenset({PROBE_REPLY}),
        ),
    },
    default_nodes=6,
    default_duration=200.0,
    search_budget_factory=lambda: SearchBudget(max_states=400, max_depth=6),
))
