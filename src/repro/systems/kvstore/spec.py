"""KV store registration with the unified experiment API."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...api.registry import ScenarioSpec, SystemSpec, register_system
from ...mc.search import SearchBudget
from ...mc.transition import TransitionConfig
from ...runtime.address import Address
from ...workload import TrafficSpec, WorkloadSpec
from .properties import ALL_PROPERTIES
from .protocol import READ_REPLY, KvConfig, KvStore
from .scenarios import StaleReadScenario

#: KvConfig fields accepted as experiment options.
_CONFIG_OPTIONS = ("read_quorum", "write_quorum", "optimistic",
                   "op_period", "reconcile_period", "keys", "ops_per_node")


def _protocol_factory(addresses: Sequence[Address],
                      options: Mapping[str, Any]):
    majority = len(addresses) // 2 + 1
    optimistic = bool(options.get("optimistic", False)) \
        and not options.get("fixed")
    config = KvConfig(
        peers=tuple(addresses),
        read_quorum=int(options.get("read_quorum", majority)),
        write_quorum=int(options.get("write_quorum", majority)),
        optimistic=optimistic,
        op_period=float(options.get("op_period", 10.0)),
        reconcile_period=float(options.get("reconcile_period", 20.0)),
        keys=int(options.get("keys", 2)),
        ops_per_node=int(options.get("ops_per_node", 8)),
    )
    return lambda: KvStore(config)


def _collect(sim) -> dict:
    stale = {"read_your_writes": 0, "monotonic_reads": 0}
    reads = writes = 0
    stores: set = set()
    per_node: dict[str, dict] = {}
    for addr, node in sorted(sim.nodes.items()):
        state = node.state
        for kind, *_rest in state.stale_reads:
            stale[kind] = stale.get(kind, 0) + 1
        reads += state.reads_done
        writes += state.writes_done
        stores.add(tuple(sorted(
            (key, version)
            for key, (version, _value) in state.store.items())))
        per_node[str(addr)] = {"reads": state.reads_done,
                               "writes": state.writes_done,
                               "stale": len(state.stale_reads)}
    return {"reads_done": reads,
            "writes_committed": writes,
            "stale_reads": stale,
            "stale_total": sum(stale.values()),
            "replicas_converged": len(stores) <= 1,
            "per_node": per_node}


def _make_get_put(rng, key, addresses):
    """70/30 get/put mix against a random coordinator."""
    coordinator = addresses[int(rng.random() * len(addresses))
                            % len(addresses)]
    if rng.random() < 0.7:
        return coordinator, "get", {"key": f"k{key}"}
    return coordinator, "put", {"key": f"k{key}",
                                "value": f"w{key}.{rng.randrange(1 << 16)}"}


SPEC = register_system(SystemSpec(
    name="kvstore",
    summary="Quorum-replicated KV store with optimistic execution: "
            "session-guarantee staleness under partitions",
    protocol_factory=_protocol_factory,
    options=_CONFIG_OPTIONS + ("fixed",),
    properties=tuple(ALL_PROPERTIES),
    transition_factory=lambda: TransitionConfig(enable_resets=False),
    scenarios={
        "stale-read": ScenarioSpec(
            name="stale-read",
            description="Consequence prediction from an under-replicated "
                        "optimistic commit: the client's read-back "
                        "violates read-your-writes (run with fixed=True "
                        "for the quorum-read variant)",
            build=StaleReadScenario.build, max_states=4000, max_depth=8,
            resets=False,
        ),
        "optimistic-staleness": ScenarioSpec(
            name="optimistic-staleness",
            description="Live optimistic-execution run under recurring "
                        "healed partitions: reads after a heal race the "
                        "reconciler and go stale (the steering demo "
                        "scenario)",
            faults=("partition",), nodes=5, duration=240.0,
            options={"optimistic": True, "ops_per_node": 18,
                     "reconcile_period": 45.0},
        ),
        "quorum-partition": ScenarioSpec(
            name="quorum-partition",
            description="Control run: the same partition schedule with "
                        "quorum reads and writes stays staleness-free",
            faults=("partition",), nodes=5, duration=240.0,
            options={"ops_per_node": 18, "reconcile_period": 45.0},
        ),
    },
    workloads={
        "get-put": WorkloadSpec(
            name="get-put",
            description="Open-loop 70/30 get/put mix against random "
                        "coordinators (quorum or optimistic reads per "
                        "the experiment's options)",
            make_request=_make_get_put,
            traffic=TrafficSpec(rate=100.0, burst=10, keys=64,
                                key_distribution="hotspot", start=20.0),
            completion_mtypes=frozenset({READ_REPLY}),
        ),
    },
    default_nodes=5,
    default_duration=200.0,
    join_call=None,
    default_churn_interval=None,
    search_budget_factory=lambda: SearchBudget(max_states=400, max_depth=6),
    collect=_collect,
))
