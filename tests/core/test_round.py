"""A controller round is counted and traced once.

Every closed round adds one to ``snapshots_collected`` and renders one
``snapshot`` record; a round that model-checks renders one ``mc_run``, its
predicted ``violation`` records and its ``filter_install`` records.  The
checks below hold the trace and the stats surface to each other per node, on
every bundled system in every mode that closes rounds, and count the start
states the rounds build.
"""

import re
from collections import Counter

import pytest

from repro.api import Experiment
from repro.core.snapshot import NeighborhoodSnapshot
from repro.obs import MemoryTracer

#: One small run per system; where a system predicts at all, its run
#: predicts, and chord, crdtset and kvstore install filters when steering.
RUNS = {
    "randtree": lambda: (Experiment("randtree").nodes(5).duration(150.0)
                         .churn(interval=50.0).network(rst_loss=0.6)
                         .options(bootstrap_index=1, max_children=2,
                                  fix_recovery_timer=True).seed(1)),
    "chord": lambda: Experiment("chord").nodes(8).duration(120.0).seed(2),
    "paxos": lambda: Experiment("paxos").nodes(5).duration(60.0).seed(1),
    "bulletprime": lambda: (Experiment("bulletprime").nodes(6)
                            .duration(60.0).seed(1)),
    "crdtset": lambda: (Experiment("crdtset").scenario("lww-divergence")
                        .duration(60.0).seed(1)),
    "kvstore": lambda: Experiment("kvstore").nodes(4).duration(40.0).seed(1),
}


def _per_node(records, kind, **match):
    return Counter(record["node"] for record in records
                   if record["kind"] == kind
                   and all(record[key] == value for key, value in match.items()))


@pytest.mark.parametrize("mode", ["debug", "steering", "isc-only"])
@pytest.mark.parametrize("system", sorted(RUNS))
def test_every_round_is_counted_and_traced_once(system, mode):
    tracer = MemoryTracer()
    report = RUNS[system]().mode(mode).trace(tracer).run()
    records = tracer.records
    snapshots = _per_node(records, "snapshot")
    runs = _per_node(records, "mc_run")
    predicted = _per_node(records, "violation", vkind="predicted")
    installs = _per_node(records, "filter_install")
    for node in report.nodes:
        stats = node.stats
        assert stats["snapshots_collected"] > 0
        assert snapshots[node.node] == stats["snapshots_collected"]
        assert runs[node.node] == stats["model_checker_runs"]
        assert predicted[node.node] == stats["violations_predicted"]
        assert sum(record["violations"] for record in records
                   if record["kind"] == "mc_run"
                   and record["node"] == node.node) \
            == stats["violations_predicted"]
        assert installs[node.node] == stats["filters_installed"]
        ids = [int(re.match(r"filter#(\d+) ", record["filter"]).group(1))
               for record in records
               if record["kind"] == "filter_install"
               and record["node"] == node.node]
        assert ids == list(range(1, stats["filters_installed"] + 1))
    if mode == "isc-only":
        assert not runs and not installs
    elif mode == "steering" and system in ("chord", "crdtset", "kvstore"):
        assert installs, "the run no longer installs filters; pick a seed"


@pytest.mark.parametrize("experiment", [
    lambda: Experiment("chord").nodes(8).duration(60.0).mode("steering")
    .seed(1),
    lambda: Experiment("bulletprime").nodes(6).duration(100.0)
    .mode("isc-only").seed(4),
], ids=["chord-steering", "bulletprime-isc-only"])
def test_a_round_builds_its_start_state_once(experiment, monkeypatch):
    """The search, the filter re-checks and every immediate safety check of
    a round share one start state."""
    calls = []
    to_global_state = NeighborhoodSnapshot.to_global_state

    def counted(snapshot):
        calls.append(snapshot)
        return to_global_state(snapshot)

    monkeypatch.setattr(NeighborhoodSnapshot, "to_global_state", counted)
    report = experiment().run()
    assert report.total("snapshots_collected") > 0
    assert len(calls) == report.total("snapshots_collected")
