"""Live property monitor: incremental fast path, episode dedup, liveness."""

import itertools

import pytest

from repro.api import Experiment
from repro.core.monitor import LivePropertyMonitor
from repro.properties import eventually, node_property
from repro.runtime import Address, NetworkModel, Simulator, make_addresses
from repro.systems.randtree import ALL_PROPERTIES, RandTree, RandTreeConfig


def _tree_sim(nodes=3, seed=1):
    addrs = make_addresses(nodes)
    config = RandTreeConfig(bootstrap=(addrs[0],))
    sim = Simulator(lambda: RandTree(config), NetworkModel(), seed=seed)
    for addr in addrs:
        sim.add_node(addr)
    for index, addr in enumerate(addrs):
        sim.schedule_app(1.0 + index * 5.0, addr, "join", {})
    return sim, addrs


# ---------------------------------------------------------------- equivalence


@pytest.mark.parametrize("system,settings", [
    ("randtree", dict(nodes=5, duration=150.0)),
    ("chord", dict(nodes=6, duration=150.0)),
    ("paxos", dict(nodes=3, duration=60.0)),
    ("bulletprime", dict(nodes=6, duration=150.0)),
    ("crdtset", dict(nodes=4, duration=80.0)),
    ("kvstore", dict(nodes=4, duration=80.0)),
])
def test_incremental_monitor_is_bit_identical_to_full_recheck(system, settings):
    reports = []
    for incremental in (True, False):
        experiment = (Experiment(system)
                      .nodes(settings["nodes"])
                      .duration(settings["duration"])
                      .seed(11)
                      .incremental_monitor(incremental))
        reports.append(experiment.run())
    fast, full = reports
    assert fast.live_monitor.records == full.live_monitor.records
    fast_report = fast.live_monitor.report()
    full_report = full.live_monitor.report()
    for key in ("events_checked", "inconsistent_states",
                "distinct_violation_episodes", "properties_violated",
                "violations_by_property", "by_severity", "episodes"):
        assert fast_report[key] == full_report[key], key


def test_incremental_equivalence_under_faults_and_violations():
    """The known violation-heavy seed must agree episode-for-episode."""
    reports = []
    for incremental in (True, False):
        report = (Experiment("randtree")
                  .nodes(5)
                  .duration(150.0)
                  .churn(interval=50.0)
                  .network(rst_loss=0.6)
                  .options(bootstrap_index=1, max_children=2,
                           fix_recovery_timer=True)
                  .seed(9)
                  .incremental_monitor(incremental)
                  .run())
        reports.append(report)
    fast, full = reports
    assert full.live_inconsistent_states() > 0, (
        "seed no longer produces violations; pick a violating seed")
    assert fast.live_monitor.records == full.live_monitor.records
    assert fast.live_inconsistent_states() == full.live_inconsistent_states()


# --------------------------------------------------------------- episode dedup


def test_drifting_detail_is_one_episode():
    """Satellite fix: episodes key on (property, node), detail is payload."""
    counter = itertools.count()

    def drifting(addr, state, timers, gs):
        yield f"members changed (revision {next(counter)})"

    prop = node_property("t.drifting", drifting, local_only=True)
    sim, addrs = _tree_sim(nodes=2)
    monitor = LivePropertyMonitor([prop]).install(sim)
    sim.run(until=40.0)
    assert monitor.events_checked > 2
    # One persistent episode per node, despite a new detail every event.
    assert monitor.new_violations == 2
    assert len(monitor.records) == 2
    assert {record.node for record in monitor.records} == \
        {str(addr) for addr in addrs}
    # The detail payload is the text at episode open.
    assert all("revision" in record.detail for record in monitor.records)
    # Every event still counts as an inconsistent state.
    assert monitor.inconsistent_states == monitor.events_checked


def test_cleared_violation_reopens_as_new_episode():
    flag = {"on": True}

    def toggled(addr, state, timers, gs):
        if flag["on"]:
            yield "bad"

    # local_only=False forces a full re-check per event so the toggle is
    # picked up immediately regardless of which node executed.
    prop = node_property("t.toggled", toggled, local_only=False)
    sim, addrs = _tree_sim(nodes=1)
    monitor = LivePropertyMonitor([prop]).install(sim)
    sim.run(until=10.0)
    assert monitor.new_violations == 1
    flag["on"] = False
    sim.schedule_app(11.0, addrs[0], "join", {})
    sim.run(until=12.0)
    flag["on"] = True
    sim.schedule_app(13.0, addrs[0], "join", {})
    sim.run(until=30.0)
    assert monitor.new_violations == 2, (
        "a violation that cleared and recurred is a new episode")


# ------------------------------------------------------------------ edge cases


def test_empty_property_set_counts_nothing():
    sim, _ = _tree_sim()
    monitor = LivePropertyMonitor([]).install(sim)
    sim.run(until=30.0)
    monitor.finalize(sim.now)
    assert monitor.events_checked > 0
    assert monitor.inconsistent_states == 0
    assert monitor.records == []
    report = monitor.report()
    assert report["violations_by_property"] == {}
    assert report["distinct_violation_episodes"] == 0


def test_experiment_with_explicit_empty_selection_runs_clean():
    report = (Experiment("randtree").nodes(3).duration(40.0).churn(False)
              .properties().seed(3).run())
    assert report.live_monitor.properties == []
    assert report.violations_observed() == 0
    assert report.violations_by_property() == {}


def test_node_departure_mid_run_closes_and_reopens_episodes():
    """Cross-node/churn edge: a node leaving drops its cached episodes."""

    def always(addr, state, timers, gs):
        yield "always violating"

    prop = node_property("t.always", always, local_only=True)
    sim, addrs = _tree_sim(nodes=3)
    monitor = LivePropertyMonitor([prop]).install(sim)
    sim.run(until=30.0)
    assert monitor.new_violations == 3
    victim = addrs[1]
    sim.crash_node(victim)
    sim.schedule_app(31.0, addrs[0], "join", {})
    sim.run(until=40.0)
    active_nodes = {node for (_, node) in monitor._active}
    assert victim not in active_nodes, "departed node must leave _active"
    sim.revive_node(victim)
    sim.schedule_app(41.0, victim, "join", {})
    sim.run(until=60.0)
    # The revived node reopens its episode (fresh state, fresh incarnation).
    assert monitor.new_violations == 4
    reopened = [r for r in monitor.records if r.node == str(victim)]
    assert len(reopened) == 2


def test_monitor_handles_mixed_state_types_in_global_state():
    """A cross-system selection over a live run never crashes the monitor."""
    from repro.systems.chord.properties import ALL_PROPERTIES as CHORD_PROPERTIES

    sim, _ = _tree_sim(nodes=3)
    monitor = LivePropertyMonitor(
        list(ALL_PROPERTIES) + list(CHORD_PROPERTIES)).install(sim)
    sim.run(until=40.0)
    assert monitor.events_checked > 0
    assert all(not record.property_id.startswith("chord.")
               for record in monitor.records), (
        "chord properties must not fire on RandTree state")


@pytest.mark.xfail(strict=True, reason=(
    "the live monitor is blind to in-flight messages: `__call__` builds its "
    "`GlobalState` without `inflight`, although `bullet.file_map_consistency` "
    "and `kvstore.quorum_intersection` are defined modulo in-flight copies. "
    "A default, fixed-protocol `Experiment(\"bulletprime\").seed(4).run()` "
    "books 344 `inconsistent_states` in 37 episodes (0 with "
    "`sim.inflight_messages()` passed), the goldens pin 231 such states for "
    "`mesh-partition` and `slow-links`, and `download` books 339 at seed 1. "
    "The one-line fix moves the `state_digest` of every pinned episode, so "
    "it is the next correctness PR (ROADMAP correctness item 7)"))
def test_a_fixed_protocol_raises_no_false_alarm_over_inflight_messages():
    report = Experiment("bulletprime").seed(4).run()
    assert report.live_inconsistent_states() == 0


# -------------------------------------------------------------------- liveness


def test_eventually_window_is_anchored_at_install_not_first_event():
    """install() opens run-start-relative windows at sim.now, so a late
    first event cannot stretch the deadline."""
    prop = eventually("t.anchored", lambda gs: False, within=15.0)
    sim, addrs = _tree_sim(nodes=1)
    sim._queue.clear()  # drop the scheduled joins: first event comes late
    monitor = LivePropertyMonitor([prop]).install(sim)
    sim.schedule_app(20.0, addrs[0], "join", {})
    sim.run(until=25.0)
    # Window opened at install (t=0), deadline 15 < first event at 20.
    assert monitor.report()["liveness_violations"] == 1


def test_liveness_violation_flows_into_records_and_finalize():
    prop = eventually("t.never", lambda gs: False, within=15.0)
    sim, _ = _tree_sim(nodes=2)
    monitor = LivePropertyMonitor([prop]).install(sim)
    sim.run(until=10.0)
    assert monitor.report()["liveness_violations"] == 0
    sim.schedule_app(20.0, Address(1), "join", {})
    sim.run(until=25.0)
    monitor.finalize(sim.now)
    monitor.finalize(sim.now)  # idempotent
    assert monitor.report()["liveness_violations"] == 1
    (record,) = [r for r in monitor.records if r.kind == "liveness"]
    assert record.property_id == "t.never"
    assert record.severity == "warning"
    # Liveness expiries are episodes, not inconsistent live states.
    report = monitor.report()
    assert report["liveness_violations"] == 1
    assert report["violations_by_property"]["t.never"] == 1
