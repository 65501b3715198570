"""Per-layer probes: what one call into each layer costs.

``python -m benchmarks.e2e.probes SEED SCRATCH_DIR`` prints one JSON object
of ``metric name -> value``.  The probes are the same whichever workload the
traced run was asked for; each one times calls into public functions over a
corpus harvested from small runs of the program itself:

* ``GlobalState``s, ``(state, event)`` pairs and in-flight ``Message``s from
  a breadth-first walk (``enabled_events``/``apply``) of the RandTree join,
  the Chord Figure 10 snapshot and the kvstore stale-read snapshot;
* the final ``NodeState``s of short live runs of the three systems.

Micro-probes report the median over five passes, in microseconds per call.
Twin probes run the same seeded inputs twice with one layer switched off
and report the difference; they run once and are the noisiest figures here.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Any, Callable

from .workloads import WORKLOADS, scripted_snapshot  # imports no repro

PASSES = 5
WALK_STATES = 400
SYSTEMS = ("randtree", "chord", "kvstore")


def per_call_us(call: Callable[[Any], Any], items: list,
                prepare: Callable[[Any], Any] = lambda item: item) -> float:
    """Median over the passes of the mean microseconds per ``call(item)``;
    ``prepare`` runs outside the clock (fresh copies for cold caches)."""
    samples = []
    for _ in range(PASSES):
        prepared = [prepare(item) for item in items]
        started = time.perf_counter()
        for item in prepared:
            call(item)
        samples.append((time.perf_counter() - started) / len(items))
    return statistics.median(samples) * 1e6


def timed(call: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


# ------------------------------------------------------------------ the corpus

def walk(system, start, limit: int = WALK_STATES):
    """Breadth-first walk: distinct states, and the (state, event) pairs
    that produced them."""
    seen = {start.state_hash()}
    states, pairs = [start], []
    for state in states:
        for event in system.enabled_events(state):
            pairs.append((state, event))
            successor = system.apply(state, event)
            if successor.state_hash() not in seen:
                seen.add(successor.state_hash())
                states.append(successor)
        if len(states) >= limit:
            break
    return states[:limit], pairs


def search_corpus(search_inputs: dict) -> dict[str, tuple]:
    """system -> (TransitionSystem, properties, states, pairs)."""
    _, system, start, properties, _, _ = search_inputs["searches"][0]
    corpus = {"randtree": (system, properties, *walk(system, start))}
    for name, scenario in (("chord", "figure10"), ("kvstore", "stale-read")):
        system, start, properties = scripted_snapshot(name, scenario)
        corpus[name] = (system, properties, *walk(system, start))
    return corpus


def live_states(seed: int) -> dict[str, dict]:
    """system -> {address: (NodeState, timers)} at the end of a short
    property-free live run with traffic."""
    from repro.api import Experiment

    runs = {
        "randtree": Experiment("randtree").nodes(16).duration(120),
        "chord": (Experiment("chord").nodes(16).duration(120)
                  .workload("lookups", rate=16, burst=4, start=20)),
        "kvstore": (Experiment("kvstore").nodes(8).duration(40)
                    .workload("get-put", rate=40, burst=4, start=5)),
    }
    return {name: (experiment.seed(seed).churn(False).properties().run()
                   .simulator.node_states())
            for name, experiment in runs.items()}


# ------------------------------------------------------------------ the probes

def codec_probes(live: dict[str, dict], metrics: dict) -> None:
    from repro.runtime.serialization import (
        delta_size, freeze, from_compact_bytes, to_compact_bytes)

    everything, pairs = [], []
    for name in SYSTEMS:
        states = [state for state, _ in live[name].values()]
        everything.extend(states)
        # Two nodes of one system: same state type, most fields different.
        pairs.extend(zip(states, states[1:]))
        metrics[f"runtime.state.clone_us.{name}"] = per_call_us(
            lambda s: s.clone(), states)
        # NodeState keeps no signature cache, so every call is cold.
        metrics[f"runtime.state.hash_us.{name}"] = per_call_us(
            lambda s: s.state_hash(), states)
    blobs = [to_compact_bytes(state) for state in everything]
    metrics["runtime.serialization.freeze_us"] = per_call_us(
        freeze, everything)
    metrics["runtime.serialization.encode_us"] = per_call_us(
        to_compact_bytes, everything)
    metrics["runtime.serialization.decode_us"] = per_call_us(
        from_compact_bytes, blobs)
    metrics["runtime.serialization.encoded_bytes_mean"] = (
        sum(map(len, blobs)) / len(blobs))
    metrics["runtime.serialization.delta_size_us"] = per_call_us(
        lambda pair: delta_size(*pair), pairs)


def mc_probes(corpus: dict[str, tuple], metrics: dict) -> None:
    from repro.mc import check_all

    all_states, all_systems = [], []
    for name in SYSTEMS:
        system, properties, states, pairs = corpus[name]
        metrics[f"mc.transition.apply_us.{name}"] = per_call_us(
            lambda pair, system=system: system.apply(*pair), pairs)
        metrics[f"properties.check_all_us.{name}"] = per_call_us(
            lambda state, properties=properties: check_all(properties, state),
            states)
        all_states.extend(states)
        all_systems.extend([system] * len(states))
    metrics["mc.transition.enabled_events_us"] = per_call_us(
        lambda pair: pair[0].enabled_events(pair[1]),
        list(zip(all_systems, all_states)))
    # A clone has empty signature caches all the way down.
    metrics["mc.global_state.hash_us"] = per_call_us(
        lambda state: state.state_hash(), all_states,
        prepare=lambda state: state.clone())


def wire_probes(corpus: dict[str, tuple], metrics: dict) -> None:
    from repro.backends.wire import decode_frame, encode_frame

    messages = [message for name in SYSTEMS
                for state in corpus[name][2] for message in state.inflight]
    frames = [encode_frame(message) for message in messages]
    metrics["backends.wire.encode_frame_us"] = per_call_us(
        encode_frame, messages)
    metrics["backends.wire.decode_frame_us"] = per_call_us(
        decode_frame, frames)
    metrics["backends.wire.frame_bytes_mean"] = (
        sum(map(len, frames)) / len(frames))


def controller_probes(live: dict[str, dict], metrics: dict) -> None:
    from repro.core.checkpoint import Checkpoint
    from repro.core.snapshot import NeighborhoodSnapshot

    checkpoints = {
        addr: Checkpoint(node=addr, checkpoint_number=1, state=state,
                         timers=timers)
        for addr, (state, timers) in live["chord"].items()}
    snapshots = [NeighborhoodSnapshot(
        origin=addr, checkpoint_number=1, checkpoints=checkpoints)
        for addr in checkpoints]
    metrics["core.snapshot.to_global_state_us"] = per_call_us(
        lambda snapshot: snapshot.to_global_state(), snapshots)
    metrics["core.checkpoint.compressed_bytes_us"] = per_call_us(
        lambda checkpoint: checkpoint.compressed_bytes(),
        list(checkpoints.values()))


def search_probes(inputs: dict, metrics: dict) -> None:
    """The four phases of ``search_offline`` and the parallel engine."""
    from repro.mc import ParallelEngine

    outcome = WORKLOADS["search_offline"].run(inputs)
    seconds = outcome["measured"]["phase_seconds"]
    for phase, counts in outcome["counts"]["phases"].items():
        kind, _, system = phase.partition(".")
        name = ("mc.search.exhaustive_states_per_s" if kind == "exhaustive"
                else f"mc.search.consequence_states_per_s.{system}")
        metrics[name] = counts["states_visited"] / seconds[phase]
    _, system, start, properties, budget, kind = inputs["searches"][0]
    parallel_s, result = timed(lambda: ParallelEngine(num_workers=2).run(
        system, start, properties, budget, kind=kind))
    serial = outcome["counts"]["phases"]["exhaustive.randtree-join"]
    if result.stats.states_visited != serial["states_visited"]:
        raise AssertionError("parallel and serial searches disagree")
    metrics["mc.parallel.speedup_w2"] = (
        seconds["exhaustive.randtree-join"] / parallel_s)
    metrics["mc.parallel.cpu_count"] = os.cpu_count() or 1


def twin_probes(seed: int, scratch: str, metrics: dict) -> None:
    """Same seeded inputs, one layer on and off."""
    from repro.api import Experiment
    from repro.obs import JsonlTracer

    def traffic():
        return (Experiment("chord").nodes(24).duration(130).seed(seed)
                .churn(False).workload("lookups", rate=32, burst=4, start=20)
                .metrics())

    bare_s, bare = timed(traffic().properties().run)
    monitored_s, monitored = timed(traffic().run)
    events = bare.metrics["counters"]["runtime.events_executed"]
    metrics["runtime.simulator.bare_events_per_s"] = events / bare_s
    metrics["core.monitor.per_event_us"] = (
        (monitored_s - bare_s) / events * 1e6)
    json_s, _ = timed(monitored.to_json)
    metrics["api.report_to_json_ms"] = json_s * 1e3

    def kvstore(backend: str):
        return (Experiment("kvstore").nodes(8).duration(30).seed(seed)
                .churn(False).workload("get-put", rate=40, burst=4, start=5)
                .backend(backend).metrics())

    sim_s, _ = timed(kvstore("sim").run)
    tcp_s, tcp = timed(kvstore("tcp").run)
    frames = tcp.outcome["wire"]["frames_sent"]
    metrics["backends.tcp.overhead_per_frame_us"] = (
        (tcp_s - sim_s) / frames * 1e6)

    def steering():
        return (Experiment("chord").nodes(8).duration(60).seed(seed)
                .crystalball("steering"))

    plain_s, _ = timed(steering().run)
    traced_s, _ = timed(steering().trace(
        JsonlTracer(os.path.join(scratch, "tracer.jsonl"))).run)
    metrics["obs.tracer_overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0


def campaign_probes(scratch: str, metrics: dict) -> None:
    from repro.campaign import CampaignSpec, ResultStore, make_record

    spec = CampaignSpec(
        systems=("randtree", "chord", "kvstore"),
        fault_presets=(None, "partition"), seeds=tuple(range(8)),
        modes=("off", "steering"))
    cells = spec.expand()
    metrics["campaign.expand_us_per_cell"] = per_call_us(
        lambda s: s.expand(), [spec]) / len(cells)
    store = ResultStore(os.path.join(scratch, "store.jsonl"))
    records = [make_record(cell.to_dict(), status="ok",
                           wall_clock_seconds=0.0) for cell in cells[:32]]
    metrics["campaign.store_append_us"] = per_call_us(store.append, records)


def run_probes(seed: int, scratch: str) -> dict[str, float]:
    metrics: dict[str, float] = {}
    metrics["api.import_s"], _ = timed(lambda: __import__("repro.api"))
    search = WORKLOADS["search_offline"]
    search_inputs = search.build(0, search.sizes["bench"])
    corpus = search_corpus(search_inputs)
    live = live_states(seed)
    codec_probes(live, metrics)
    mc_probes(corpus, metrics)
    wire_probes(corpus, metrics)
    controller_probes(live, metrics)
    search_probes(search_inputs, metrics)
    twin_probes(seed, scratch, metrics)
    campaign_probes(scratch, metrics)
    return metrics


if __name__ == "__main__":
    print(json.dumps(run_probes(int(sys.argv[1]), sys.argv[2])))
