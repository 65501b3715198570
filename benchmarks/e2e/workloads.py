"""The four workloads: how each builds its inputs from a seed and what one
unit of it runs.

A *unit* is one fixed-size pass over a workload's inputs.  ``build`` is the
set-up (imports, registry, start states or the ``Experiment``); ``run`` is
the timed section and returns

* ``counts`` — the program's own seeded counts, exact for a given
  ``(workload, size, seed)``: two runs of one commit must agree on every
  one of them, and a change that claims speed only must leave them
  identical;
* ``measured`` — wall-clock derived figures and the few counts that are
  *not* exact (``wire_bytes``, see README).

Everything here goes through public entry points only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

#: name -> workload, in BENCHMARK.json's order.
WORKLOADS: dict[str, "Workload"] = {}

#: (system, scripted scenario) pairs the offline search predicts from.
SCRIPTED_SNAPSHOTS = (("chord", "figure10"), ("randtree", "figure2"),
                      ("bulletprime", "shadow-map"))


@dataclass(frozen=True)
class Workload:
    name: str
    #: the one-line reason BENCHMARK.json carries.
    why: str
    build: Callable[[int, dict], Any]
    run: Callable[[Any], dict]
    #: parameters per size: "bench" is what the benchmark measures,
    #: "smoke" is the cut-down form the tier-1 smoke test runs.
    sizes: dict[str, dict]
    #: False when the inputs have no random part: every seed then runs the
    #: same unit and is checked against the one golden.
    seeded: bool = True


def _register(workload: Workload) -> None:
    WORKLOADS[workload.name] = workload


# --------------------------------------------------------------- search_offline

def scripted_snapshot(system: str, scenario: str) -> tuple:
    """(TransitionSystem, start state, properties) of a registered scripted
    scenario, the way its own runner sets the search up."""
    from repro.api import get_system
    from repro.mc import TransitionSystem

    spec = get_system(system)
    built = spec.scenario(scenario).build()
    protocol, snapshot = (built if isinstance(built, tuple)
                          else (built.protocol, built.global_state()))
    return (TransitionSystem(protocol, spec.transition_factory()), snapshot,
            list(spec.properties))


def _build_search(seed: int, params: dict) -> dict:
    """Start states and transition systems of the four searches.

    An exhaustive search has no random input, so the workload is
    unseeded: every seed explores the same spaces and must reach the same
    state counts.
    """
    from repro.mc import (GlobalState, SearchBudget, SearchKind,
                          SerialEngine, TransitionConfig, TransitionSystem)
    from repro.runtime import make_addresses
    from repro.systems import randtree

    addrs = make_addresses(5)
    protocol = randtree.RandTree(
        randtree.RandTreeConfig(bootstrap=(addrs[0],)))
    join_start = GlobalState.from_snapshot(
        {a: protocol.initial_state(a) for a in addrs},
        timers={a: [randtree.JOIN_TIMER] for a in addrs})
    searches = [(
        "exhaustive.randtree-join",
        TransitionSystem(protocol, TransitionConfig(
            enable_resets=True, max_resets_per_node=1)),
        join_start, list(randtree.ALL_PROPERTIES),
        SearchBudget(max_states=None, max_depth=params["exhaustive_depth"]),
        SearchKind.EXHAUSTIVE)]
    for system, scenario in SCRIPTED_SNAPSHOTS:
        searches.append((
            f"consequence.{system}", *scripted_snapshot(system, scenario),
            SearchBudget(max_states=None,
                         max_depth=params["consequence_depth"]),
            SearchKind.CONSEQUENCE))
    # What gathering these snapshots would put on the wire: the compressed
    # checkpoint of every member, per node.
    members = [local for _, _, start, _, _, _ in searches
               for local in start.nodes.values()]
    control_bytes = sum(local.state.compressed_bytes() for local in members)
    return {"engine": SerialEngine(), "searches": searches,
            "control_bytes_per_node": control_bytes / len(members)}


def _run_search(inputs: dict) -> dict:
    engine = inputs["engine"]
    phases: dict[str, dict] = {}
    seconds: dict[str, float] = {}
    for name, system, start, properties, budget, kind in inputs["searches"]:
        started = time.perf_counter()
        result = engine.run(system, start, properties, budget, kind=kind)
        seconds[name] = time.perf_counter() - started
        stats = result.stats
        phases[name] = {
            "states_visited": stats.states_visited,
            "transitions_applied": stats.transitions_applied,
            "duplicate_states": stats.duplicate_states,
            "max_depth_reached": stats.max_depth_reached,
            "peak_memory_bytes": stats.peak_memory_bytes,
            "violation_keys": sorted(
                {f"{v.violation.property_name}@{v.violation.node}"
                 for v in result.violations}),
        }
    predictions = [s for name, s in seconds.items()
                   if name.startswith("consequence.")]
    states = sum(p["states_visited"] for p in phases.values())
    transitions = sum(p["transitions_applied"] for p in phases.values())
    return {
        "counts": {"phases": phases, "states_visited": states,
                   "transitions_applied": transitions},
        "measured": {
            "states": states,
            "search_seconds": sum(seconds.values()),
            # The model checker's "events" are the handler executions of
            # its transitions.
            "events": transitions,
            "prediction_seconds": sum(predictions),
            "predictions": len(predictions),
            "control_bytes_per_node": inputs["control_bytes_per_node"],
            "phase_seconds": seconds,
            # A search fails when its counts differ from the golden, which
            # the parent checks.
            "attempted": len(phases),
            "failed": 0,
        },
    }


_register(Workload(
    name="search_offline",
    why="SerialEngine alone: exhaustive RandTree join search, then "
        "consequence prediction from three scripted snapshots; mc and the "
        "state codec (clone, hash) do all the work, no simulator or wire",
    build=_build_search,
    run=_run_search,
    sizes={"bench": {"exhaustive_depth": 5, "consequence_depth": 12},
           "smoke": {"exhaustive_depth": 3, "consequence_depth": 6}},
    seeded=False,
))


# ------------------------------------------------------------ the live workloads

def _tiny_budget():
    """The checker sees 8 states per round: mc stays on but costs nothing,
    so these workloads price the runtime, not the search."""
    from repro.mc import SearchBudget
    return SearchBudget(max_states=8, max_depth=2)


def _build_steering(seed: int, params: dict) -> Any:
    from repro.api import Experiment
    return (Experiment("chord").nodes(params["nodes"])
            .duration(params["duration"]).seed(seed)
            .crystalball("steering").metrics())


def _build_traffic(seed: int, params: dict) -> Any:
    from repro.api import Experiment
    from repro.core.controller import CheckingPolicy
    # Sampled deep checking (a quarter of the nodes per round) is how the
    # paper deploys at scale; with every node checking every round the
    # checker's fixed per-round cost is a third of this workload.
    return (Experiment("chord").nodes(params["nodes"])
            .duration(params["duration"]).seed(seed).churn(False)
            .workload("lookups", rate=params["rate"], burst=4, start=20,
                      duration=params["duration"] - 20 - params["drain"])
            .crystalball("debug", budget=_tiny_budget(),
                         checking=CheckingPolicy(period=4, seed=seed))
            .metrics())


def _build_tcp(seed: int, params: dict) -> Any:
    from repro.api import Experiment
    return (Experiment("kvstore").nodes(params["nodes"])
            .duration(params["duration"]).seed(seed).churn(False)
            .workload("get-put", rate=params["rate"], burst=4, start=20,
                      duration=params["duration"] - 20 - params["drain"])
            .backend("tcp")
            .crystalball("debug", budget=_tiny_budget()).metrics())


def _run_live(experiment: Any) -> dict:
    from repro.backends.base import protocol_state_digest

    report = experiment.run()
    counters = report.metrics["counters"]
    mc_runs = report.metrics["histograms"]["controller.mc_run_seconds"]
    totals = report.totals()
    wire = dict(report.outcome.get("wire") or {})
    wire_bytes = wire.pop("wire_bytes", 0)
    injected = report.requests_injected()
    skipped = int(report.workload.get("requests_skipped", 0))
    counts = {
        "events_executed": counters["runtime.events_executed"],
        "mc_runs": totals["model_checker_runs"],
        "states_visited": counters.get("mc.states_visited", 0),
        "transitions_applied": counters.get("mc.transitions_applied", 0),
        "violations_by_property": report.violations_by_property(),
        "accounting": report.accounting(),
        "snapshots_collected": totals["snapshots_collected"],
        "incomplete_snapshots": totals["incomplete_snapshots"],
        "checkpoint_bytes": report.checkpoint_bytes(),
        "requests": {"injected": injected,
                     "completed": report.requests_completed(),
                     "skipped": skipped},
        "wire": wire,
        "state_digest": protocol_state_digest(report.simulator),
    }
    if report.backend == "tcp":
        # get-put counts one ReadReply per replica, so completed/injected
        # is not a ratio there; an operation is a frame.
        fallback = wire.get("fallback_local", 0)
        attempted = wire.get("frames_sent", 0) + fallback + skipped
        failed = fallback + skipped
    elif injected:
        attempted = injected + skipped
        failed = skipped + injected - report.requests_completed()
    else:
        # Steering: an operation is one checker round on a gathered
        # snapshot.  Churn leaves some snapshots incomplete by design, so
        # that is a count, not a failure.
        attempted, failed = totals["model_checker_runs"], 0
    return {
        "counts": counts,
        "measured": {
            "states": counts["states_visited"],
            "search_seconds": mc_runs["sum"],
            "events": counts["events_executed"],
            "prediction_seconds": mc_runs["sum"],
            "predictions": mc_runs["count"],
            "control_bytes_per_node":
                report.checkpoint_bytes() / report.node_count,
            "wire_bytes": wire_bytes,
            "attempted": attempted,
            "failed": failed,
        },
    }


_register(Workload(
    name="live_steering_chord12",
    why="the paper's deployment: 12 Chord nodes under churn with steering "
        "on, hundreds of small budgeted predictions from live snapshots "
        "plus filter re-checks, replay and ISC; controller rounds dominate",
    build=_build_steering,
    run=_run_live,
    sizes={"bench": {"nodes": 12, "duration": 60},
           "smoke": {"nodes": 8, "duration": 40}},
))

_register(Workload(
    name="traffic_chord24",
    why="everything-on throughput: 24 Chord nodes serving open-loop "
        "lookups with default properties and sampled debug checking at 8 "
        "states per run; monitor and simulator do the work, mc stays "
        "under a tenth",
    build=_build_traffic,
    run=_run_live,
    sizes={"bench": {"nodes": 24, "duration": 130, "rate": 32, "drain": 10},
           "smoke": {"nodes": 8, "duration": 50, "rate": 16, "drain": 10}},
))

_register(Workload(
    name="tcp_kvstore8",
    why="the same runtime through the tcp backend: every message and "
        "checkpoint of an 8-node kvstore is encoded, crosses a loopback "
        "socket and is decoded, so the codec runs as encode/decode",
    build=_build_tcp,
    run=_run_live,
    sizes={"bench": {"nodes": 8, "duration": 40, "rate": 40, "drain": 5},
           "smoke": {"nodes": 4, "duration": 26, "rate": 20, "drain": 2}},
))
