"""repro — a reproduction of CrystalBall (NSDI 2009).

CrystalBall runs a model checker concurrently with a deployed distributed
system: each node collects a consistent snapshot of its neighbourhood, runs
*consequence prediction* to find future violations of safety properties, and
either reports them (deep online debugging) or installs event filters that
steer execution away from them (execution steering).

Package layout
--------------
``repro.runtime``
    Distributed-system substrate: protocols as state machines, discrete-event
    simulator, network model with TCP failure semantics, churn.
``repro.mc``
    Model-checking substrate: global states, exhaustive BFS (the MaceMC
    baseline), random walks.
``repro.properties``
    First-class property API: the global registry with namespaced ids,
    severities and tags, safety/cross-node/bounded-liveness combinators,
    and structured violation records.
``repro.core``
    CrystalBall itself: consequence prediction, checkpoint manager and
    consistent neighbourhood snapshots, controller, execution steering,
    immediate safety check.
``repro.systems``
    The services under test: RandTree, Chord, Bullet' and Paxos,
    re-implemented with the paper's inconsistencies (and the suggested
    fixes behind flags), plus two replicated-data families — op-based
    CRDT replicas and a quorum-replicated KV store with optimistic
    execution — whose buggy variants sit behind options.
``repro.analysis``
    Statistics and table/figure formatting used by the benchmark harness.
``repro.api``
    The unified experiment API: system registry, fluent ``Experiment``
    builder, structured ``RunReport`` and the ``python -m repro`` CLI.
``repro.faults``
    Fault injection: seeded nemesis scheduler, composable fault types and
    named presets.
``repro.campaign``
    Declarative sweeps over system × scenario × faults × seeds × modes,
    executed across a worker pool with a resumable JSONL result store.
``repro.obs``
    Observability: structured JSONL tracing, the metrics registry, the
    campaign progress logger and trace analysis/export tooling.
"""

from . import (
    analysis,
    api,
    campaign,
    core,
    faults,
    mc,
    obs,
    properties,
    runtime,
    systems,
)

__version__ = "1.6.0"

__all__ = ["analysis", "api", "campaign", "core", "faults", "mc", "obs",
           "properties", "runtime", "systems", "__version__"]
