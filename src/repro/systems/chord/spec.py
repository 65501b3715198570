"""Chord registration with the unified experiment API."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...api.registry import ScenarioSpec, SystemSpec, register_system
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address
from ...workload import TrafficSpec, WorkloadSpec
from .properties import ALL_PROPERTIES
from .protocol import LOOKUP_REPLY, Chord, ChordConfig
from .scenarios import Figure10Scenario, Figure11Scenario

#: ChordConfig fields accepted as experiment options.
_CONFIG_OPTIONS = ("id_bits", "successor_list_size", "join_retry_period",
                   "stabilize_period", "id_map", "fix_pred_self",
                   "fix_ordering")


def _protocol_factory(addresses: Sequence[Address],
                      options: Mapping[str, Any]):
    kwargs = {name: options[name] for name in _CONFIG_OPTIONS
              if name in options}
    if options.get("fixed"):
        kwargs.update(fix_pred_self=True, fix_ordering=True)
    bootstrap_index = int(options.get("bootstrap_index", 0))
    config = ChordConfig(bootstrap=(addresses[bootstrap_index],), **kwargs)
    return lambda: Chord(config)


def _make_lookup(rng, key, addresses):
    """One DHT lookup for ``key`` issued from a random live member."""
    origin = addresses[int(rng.random() * len(addresses)) % len(addresses)]
    return origin, "lookup", {"key": key}


SPEC = register_system(SystemSpec(
    name="chord",
    summary="Chord DHT (Section 5.2.2): ring stabilization inconsistencies",
    protocol_factory=_protocol_factory,
    options=_CONFIG_OPTIONS + ("fixed", "bootstrap_index"),
    properties=tuple(ALL_PROPERTIES),
    transition_factory=lambda: TransitionConfig(enable_resets=True,
                                                max_resets_per_node=1),
    scenarios={
        "figure10": ScenarioSpec(
            name="figure10",
            description="Consequence prediction from the Figure 10 state "
                        "(predecessor-is-self inconsistency)",
            build=Figure10Scenario.build, max_states=12000, max_depth=12,
        ),
        "figure11": ScenarioSpec(
            name="figure11",
            description="Consequence prediction from the Figure 11 state "
                        "(ring-ordering violation)",
            build=Figure11Scenario.build, max_states=12000, max_depth=12,
            resets=False,
        ),
        "partition-churn": ScenarioSpec(
            name="partition-churn",
            description="Live ring under overlapping partitions and "
                        "crash/restart churn — the compound adversary "
                        "behind the ring-consistency violations",
            faults=("partition-churn",), nodes=6, duration=240.0,
        ),
        "link-flap": ScenarioSpec(
            name="link-flap",
            description="Live ring with one flaky link cut and restored "
                        "throughout stabilization",
            faults=("link-flap",), nodes=6, duration=240.0,
        ),
    },
    workloads={
        "lookups": WorkloadSpec(
            name="lookups",
            description="Open-loop DHT key lookups from random members "
                        "(stateless routing along successor pointers)",
            make_request=_make_lookup,
            traffic=TrafficSpec(rate=200.0, burst=20, keys=4096,
                                key_distribution="zipf", start=60.0),
            completion_mtypes=frozenset({LOOKUP_REPLY}),
        ),
    },
    default_nodes=6,
    default_duration=200.0,
    search_budget=SearchBudget(max_states=400, max_depth=6),
))
