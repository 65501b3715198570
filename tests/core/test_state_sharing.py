"""A node's state is copied once, when its checkpoint is captured.

From capture on, the checkpoint's state object is shared: by the store, the
checkpoint responses that carry it, the peers' transfer caches and every
snapshot's start state.  Sharing is safe only while nothing writes such a
state, so the check below remembers every captured state's signature and
pickle bytes and holds them to the state at the end of steering runs of all
six systems and of the paper's Figure 13 scenario.
"""

import pickle

import pytest

from repro.api import Experiment
from repro.core.checkpoint import CheckpointStore
from repro.core.controller import ControllerStats
from repro.mc import SearchBudget

#: Short steering runs; each captures checkpoints and closes rounds, and
#: chord, crdtset, kvstore and Figure 13 install filters.
RUNS = {
    "randtree": lambda: (Experiment("randtree").nodes(5).duration(100.0)
                         .churn(interval=50.0).network(rst_loss=0.6)
                         .options(bootstrap_index=1, max_children=2,
                                  fix_recovery_timer=True).seed(1)),
    "chord": lambda: Experiment("chord").nodes(8).duration(120.0).seed(2),
    "paxos": lambda: Experiment("paxos").nodes(5).duration(60.0).seed(1),
    "bulletprime": lambda: (Experiment("bulletprime").nodes(6)
                            .duration(60.0).seed(1)),
    "crdtset": lambda: (Experiment("crdtset").scenario("lww-divergence")
                        .duration(60.0).seed(1)),
    "kvstore": lambda: Experiment("kvstore").nodes(4).duration(30.0).seed(1),
    # The scenario fixes the run's length; a smaller budget than its own
    # still predicts and steers around the bug.
    "paxos-figure13-bug1": lambda: (
        Experiment("paxos").scenario("figure13-bug1").seed(1)
        .crystalball(budget=SearchBudget(max_states=800, max_depth=12))),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_no_one_writes_a_captured_state(run, monkeypatch):
    captured = []
    rounds = []
    record, fold = CheckpointStore.record, ControllerStats.fold

    def remembering(store, checkpoint):
        state = checkpoint.state
        # Signature first: freezing caches an address's frozen form, which
        # a pickle taken before it would not contain.
        captured.append((state, state.signature(),
                         pickle.dumps(state, pickle.HIGHEST_PROTOCOL)))
        record(store, checkpoint)

    def collecting(stats, closed):
        rounds.append(closed)
        fold(stats, closed)

    monkeypatch.setattr(CheckpointStore, "record", remembering)
    monkeypatch.setattr(ControllerStats, "fold", collecting)
    report = RUNS[run]().mode("steering").run()

    assert captured and rounds
    for state, signature, data in captured:
        assert state.signature() == signature
        assert pickle.dumps(state, pickle.HIGHEST_PROTOCOL) == data
    states = {id(state) for state, _, _ in captured}
    for closed in rounds:
        for addr, local in closed.start.nodes.items():
            assert local.state is closed.snapshot.checkpoints[addr].state
            assert id(local.state) in states
    if run in ("chord", "crdtset", "kvstore", "paxos-figure13-bug1"):
        assert report.total("filters_installed"), "pick a seed that steers"
