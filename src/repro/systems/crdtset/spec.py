"""CRDT replica group registration with the unified experiment API."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...api.registry import ScenarioSpec, SystemSpec, register_system
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address
from ...workload import TrafficSpec, WorkloadSpec
from .properties import ALL_PROPERTIES
from .protocol import CrdtConfig, CrdtReplica
from .scenarios import ConcurrentOpsScenario

#: CrdtConfig fields accepted as experiment options.
_CONFIG_OPTIONS = ("sync_period", "lww")


def _protocol_factory(addresses: Sequence[Address],
                      options: Mapping[str, Any]):
    lww = bool(options.get("lww", False)) and not options.get("fixed")
    kwargs = {}
    if "sync_period" in options:
        kwargs["sync_period"] = float(options["sync_period"])
    config = CrdtConfig(peers=tuple(addresses), lww=lww, **kwargs)
    return lambda: CrdtReplica(config)


def _schedule(sim, addresses: Sequence[Address],
              options: Mapping[str, Any]) -> None:
    """Deterministic replicated-set workload with deliberate concurrency.

    Every replica adds its own element and bumps the counter; the first and
    last replicas then race an add/remove pair on one shared element (the
    OR-Set resolves it add-wins).  All operations finish early in the run
    so the tail exercises anti-entropy convergence under quiescence.
    """
    for index, addr in enumerate(addresses):
        base = 2.0 + index * 1.5
        sim.schedule_app(base, addr, "add", {"elem": f"e{index}"})
        sim.schedule_app(base + 4.0, addr, "inc", {"amount": index + 1})
    first, last = addresses[0], addresses[-1]
    sim.schedule_app(10.0, first, "add", {"elem": "shared"})
    sim.schedule_app(16.0, last, "remove", {"elem": "shared"})
    sim.schedule_app(16.0, first, "add", {"elem": "shared"})
    sim.schedule_app(22.0, last, "dec", {"amount": 1})


def _collect(sim) -> dict:
    sets: dict[str, list] = {}
    counters: dict[str, int] = {}
    resurrections = 0
    for addr, node in sorted(sim.nodes.items()):
        state = node.state
        sets[str(addr)] = sorted(state.observable(), key=repr)
        counters[str(addr)] = state.counter_value()
        resurrections += sum(1 for _ in state.resurrected())
    distinct_sets = {tuple(values) for values in sets.values()}
    return {"sets_by_node": sets,
            "counters_by_node": counters,
            "converged": len(distinct_sets) <= 1
                         and len(set(counters.values())) <= 1,
            "resurrections": resurrections}


def _make_set_op(rng, key, addresses):
    """60/30/10 add/remove/inc mix against a random replica."""
    replica = addresses[int(rng.random() * len(addresses)) % len(addresses)]
    draw = rng.random()
    if draw < 0.6:
        return replica, "add", {"elem": f"e{key}"}
    if draw < 0.9:
        return replica, "remove", {"elem": f"e{key}"}
    return replica, "inc", {"amount": 1}


SPEC = register_system(SystemSpec(
    name="crdtset",
    summary="Op-based OR-Set + PN-Counter replicas with anti-entropy "
            "(MET-style CRDT target)",
    protocol_factory=_protocol_factory,
    options=_CONFIG_OPTIONS + ("fixed",),
    properties=tuple(ALL_PROPERTIES),
    transition_factory=lambda: TransitionConfig(enable_resets=False),
    scenarios={
        "concurrent-ops": ScenarioSpec(
            name="concurrent-ops",
            description="Exhaustive search over a remove racing a "
                        "duplicated add: falsifies the buggy LWW-set "
                        "delivery (run with fixed=True for the OR-Set)",
            build=ConcurrentOpsScenario.build, max_states=4000, max_depth=8,
            resets=False,
        ),
        "partition-sync": ScenarioSpec(
            name="partition-sync",
            description="Live replica group under recurring healed "
                        "partitions: anti-entropy must re-converge the "
                        "sides after each heal",
            faults=("partition",), nodes=4, duration=240.0,
        ),
        "lww-divergence": ScenarioSpec(
            name="lww-divergence",
            description="Live run of the buggy LWW variant under delays "
                        "and duplicated messages: replicas diverge and "
                        "resurrect removed elements",
            faults=("delay", "duplicate"), nodes=4, duration=240.0,
            options={"lww": True},
        ),
    },
    workloads={
        "set-ops": WorkloadSpec(
            name="set-ops",
            description="Open-loop add/remove/inc mix on random replicas "
                        "(anti-entropy carries the operations outward)",
            make_request=_make_set_op,
            traffic=TrafficSpec(rate=50.0, burst=10, keys=128,
                                key_distribution="uniform", start=10.0),
        ),
    },
    default_nodes=4,
    default_duration=200.0,
    join_call=None,
    default_churn_interval=None,
    search_budget_factory=lambda: SearchBudget(max_states=400, max_depth=6),
    schedule=_schedule,
    collect=_collect,
))
