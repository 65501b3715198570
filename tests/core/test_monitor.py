"""Live property monitor: the touched-node path, episode dedup, liveness."""

import itertools

import pytest

from repro.api import Experiment
from repro.core.monitor import LivePropertyMonitor
from repro.faults import CrashRestart
from repro.mc import SearchBudget
from repro.mc.global_state import GlobalState
from repro.properties import (
    LivenessProperty,
    SafetyProperty,
    SummaryProperty,
    ViolationRecord,
    check_all,
    eventually,
    node_property,
    state_digest,
)
from repro.runtime import Address, NetworkModel, Simulator, make_addresses
from repro.runtime.events import TimerEvent
from repro.runtime.simulator import FilterAction
from repro.systems.kvstore import QUORUM_INTERSECTION
from repro.systems.randtree import (
    ALL_PROPERTIES,
    RECOVERY_TIMER,
    RandTree,
    RandTreeConfig,
)


def _tree_sim(nodes=3, seed=1, addrs=None):
    addrs = addrs or make_addresses(nodes)
    config = RandTreeConfig(bootstrap=(addrs[0],))
    sim = Simulator(lambda: RandTree(config), NetworkModel(), seed=seed)
    for addr in addrs:
        sim.add_node(addr)
    for index, addr in enumerate(addrs):
        sim.schedule_app(1.0 + index * 5.0, addr, "join", {})
    return sim, addrs


# ---------------------------------------------------------------- equivalence


class FullRecheck:
    """The reference the monitor is held to: after every event, rebuild the
    global state from ``node_states()`` and run ``check_all`` on all of it,
    opening an episode for each ``(property, node)`` key that starts
    violating."""

    def __init__(self, properties, sim):
        self.properties = properties
        self.trackers = [(prop, prop.make_tracker()) for prop in properties
                         if isinstance(prop, LivenessProperty)]
        for _, tracker in self.trackers:
            tracker.anchor(sim.now)
        self.events_checked = self.inconsistent_states = 0
        self.records, self.active = [], set()
        sim.add_observer(self)

    def open(self, state, now, name, node, detail, kind):
        severity = next(p.severity for p in self.properties if p.name == name)
        self.records.append(ViolationRecord(
            name, severity, str(node) if node is not None else None, detail,
            now, len(self.records), state_digest(state), kind))

    def __call__(self, sim, node, event):
        self.events_checked += 1
        live = sim.node_states()
        state = GlobalState.from_snapshot(
            {addr: s for addr, (s, _) in live.items()},
            timers={addr: t for addr, (_, t) in live.items()},
            inflight=sim.inflight_messages())
        violations = check_all(self.properties, state)
        self.inconsistent_states += bool(violations)
        current = set()
        for violation in violations:
            key = (violation.property_name, violation.node)
            if key not in current and key not in self.active:
                self.open(state, sim.now, *key, violation.detail, "safety")
            current.add(key)
        self.active = current
        for prop, tracker in self.trackers:
            for failed, detail in tracker.observe(state, sim.now):
                self.open(state, sim.now, prop.name, failed, detail, "liveness")

    def finalize(self, now):
        for prop, tracker in self.trackers:
            for failed, detail in tracker.finalize(now):
                self.open(GlobalState(nodes={}), now, prop.name, failed,
                          detail, "liveness")


def _assert_matches(monitor, reference):
    assert monitor.events_checked == reference.events_checked > 0
    assert monitor.inconsistent_states == reference.inconsistent_states
    assert monitor.records == reference.records


@pytest.fixture
def held_to_full_recheck(monkeypatch):
    """Give every monitor a run installs a :class:`FullRecheck` twin on the
    same simulator; calling the fixture asserts each pair agrees."""
    twins = {}
    install, finalize = LivePropertyMonitor.install, LivePropertyMonitor.finalize

    def install_twin(monitor, sim):
        install(monitor, sim)
        twins[monitor] = FullRecheck(monitor.properties, sim)
        return monitor

    def finalize_twin(monitor, now):
        if not monitor._finalized:
            twins[monitor].finalize(now)
        finalize(monitor, now)

    monkeypatch.setattr(LivePropertyMonitor, "install", install_twin)
    monkeypatch.setattr(LivePropertyMonitor, "finalize", finalize_twin)

    def check(run):
        twins.clear()
        report = run()
        for monitor, reference in twins.items():
            _assert_matches(monitor, reference)
        assert twins, "the run installed no monitor"
        return report

    return check


@pytest.mark.parametrize("system,settings", [
    ("randtree", dict(nodes=5, duration=150.0)),
    ("chord", dict(nodes=6, duration=150.0)),
    ("paxos", dict(nodes=3, duration=60.0)),
    ("bulletprime", dict(nodes=6, duration=150.0)),
    ("crdtset", dict(nodes=4, duration=80.0)),
    ("kvstore", dict(nodes=4, duration=80.0)),
])
def test_incremental_monitor_is_bit_identical_to_full_recheck(
        system, settings, held_to_full_recheck):
    # Steering and the ISC drop and re-arm timers at nodes other than the
    # one that executes next, so several nodes are touched at once.
    for mode in ("off", "steering", "isc-only"):
        held_to_full_recheck(Experiment(system)
                             .nodes(settings["nodes"])
                             .duration(settings["duration"])
                             .mode(mode)
                             .seed(11)
                             .run)


def test_incremental_equivalence_under_faults_and_violations(
        held_to_full_recheck):
    """The known violation-heavy seed must agree episode-for-episode."""
    report = held_to_full_recheck(Experiment("randtree")
                                  .nodes(5)
                                  .duration(150.0)
                                  .churn(interval=50.0)
                                  .network(rst_loss=0.6)
                                  .options(bootstrap_index=1, max_children=2,
                                           fix_recovery_timer=True)
                                  .seed(9)
                                  .run)
    assert report.live_inconsistent_states() > 0, (
        "seed no longer produces violations; pick a violating seed")


def _tcp_kvstore_smoke():
    """The smoke-sized run of the ``tcp_kvstore8`` benchmark workload."""
    return (Experiment("kvstore").nodes(4).duration(26.0).seed(1000)
            .churn(False)
            .workload("get-put", rate=20, burst=4, start=20, duration=4)
            .backend("tcp")
            .crystalball("debug",
                         budget=SearchBudget(max_states=8, max_depth=2))
            .metrics())


def test_incremental_equivalence_over_tcp(held_to_full_recheck):
    """``kvstore.quorum_intersection`` re-combines only when a summary or
    an in-flight ``Replicate`` changed, and stays exact over tcp."""
    report = held_to_full_recheck(_tcp_kvstore_smoke().run)
    monitor = report.live_monitor
    assert report.outcome["wire"]["frames_sent"] > 0
    # One summarised property, so one computed or cached check per event.
    assert (monitor.global_checks_computed + monitor.global_checks_cached
            == monitor.events_checked)
    assert 0 < monitor.global_checks_computed < monitor.events_checked / 2
    counters = report.metrics["counters"]
    assert counters["monitor.global_checks_computed"] == \
        monitor.global_checks_computed
    assert counters["monitor.global_checks_cached"] == \
        monitor.global_checks_cached


def test_inflight_keys_alone_trigger_a_recombine():
    """Summaries that never change still follow the in-flight keys: an
    episode opens whenever a message is in flight and closes when none is."""
    prop = SummaryProperty(
        "t.in_flight", lambda addr, local: 0,
        lambda summaries, keys: [(None, "a message is in flight")] * bool(keys),
        inflight_key=lambda message: message.mtype)
    sim, _ = _tree_sim(nodes=4, seed=3)
    monitor = LivePropertyMonitor([prop]).install(sim)
    reference = FullRecheck([prop], sim)
    sim.run(until=100.0)
    _assert_matches(monitor, reference)
    assert len(monitor.records) > 1
    assert monitor.global_checks_cached > 0


def test_quorum_intersection_opens_holds_and_closes_an_episode(
        held_to_full_recheck):
    """No fault preset drops a committed write below its write quorum on
    small seeds, so this run does it by hand: three of the four replicas
    crash together and come back empty, and the lone copy's coordinator
    violates until its next write of that key repairs it."""
    addrs = make_addresses(4)
    report = held_to_full_recheck(
        Experiment("kvstore").nodes(4).duration(150.0).seed(3)
        .faults(*(CrashRestart(at=40.0, duration=1.0, target=addr)
                  for addr in addrs[1:]))
        .run)
    monitor = report.live_monitor
    (record,) = monitor.records
    assert (record.property_id, record.node) == (
        "kvstore.quorum_intersection", str(addrs[0]))
    # Held over many events, and closed by the end of the run.
    assert monitor.inconsistent_states > 10
    live = report.simulator.node_states()
    final = GlobalState.from_snapshot(
        {addr: state for addr, (state, _) in live.items()},
        inflight=report.simulator.inflight_messages())
    assert QUORUM_INTERSECTION.holds(final)


class _DropRecoveryTimer:
    """A hook that filters every recovery-timer firing at its node."""

    def on_attach(self, sim, node):
        pass

    def filter_event(self, sim, node, event):
        if isinstance(event, TimerEvent) and event.timer == RECOVERY_TIMER:
            return FilterAction.DROP
        return FilterAction.ALLOW

    def immediate_safety_check(self, sim, node, event):
        return True

    def handle_control_message(self, sim, node, message):
        pass

    def on_forced_checkpoint(self, sim, node):
        pass


def test_a_timer_consumed_by_a_filtered_event_is_rechecked():
    """The filter drops the timer event after the simulator consumed the
    timer, so no observer runs for it; the node is still touched and its
    verdict is recomputed at the next event anywhere."""

    def recovery_armed(addr, state, timers, gs):
        if state.joined and RECOVERY_TIMER not in timers:
            yield "joined without a recovery timer"

    sim, addrs = _tree_sim(nodes=4, seed=3)
    sim.attach_hook(addrs[1], _DropRecoveryTimer())
    prop = node_property("t.recovery_armed", recovery_armed)
    monitor = LivePropertyMonitor([prop]).install(sim)
    reference = FullRecheck([prop], sim)
    sim.run(until=300.0)
    _assert_matches(monitor, reference)
    opened = {record.node: record.sim_time for record in monitor.records}
    assert round(opened[str(addrs[1])], 2) == 16.14


def test_touched_nodes_open_episodes_in_node_order():
    """Several touched nodes are walked in ``sim.nodes`` order, never in
    set order."""
    flag = {"on": False}

    def toggled(addr, state, timers, gs):
        if flag["on"]:
            yield "bad"

    addrs = [Address(host) for host in (7, 3, 11, 5, 2, 13, 1, 8)]
    assert list(set(addrs)) != addrs, "set order must differ for the test"
    sim, _ = _tree_sim(seed=2, addrs=addrs)
    monitor = LivePropertyMonitor(
        [node_property("t.toggled", toggled)]).install(sim)
    sim.run(until=60.0)
    assert monitor.records == []
    flag["on"] = True
    for addr in addrs[1:]:
        sim.set_timer(sim.nodes[addr], "t.poke", 100.0)
    sim.inject_app(addrs[0], "join", {})
    assert [record.node for record in monitor.records] == [
        str(addr) for addr in addrs]


def test_the_live_state_is_rebuilt_per_liveness_change_not_per_event(
        monkeypatch):
    """``from_snapshot`` / ``node_states`` cost O(nodes); the monitor calls
    them when a node joins or leaves, never once per event."""
    calls = {"rebuilds": 0, "liveness": 0}
    from_snapshot = GlobalState.from_snapshot.__func__
    node_states = Simulator.node_states

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GlobalState, "from_snapshot", classmethod(
        counted("rebuilds", from_snapshot)))
    monkeypatch.setattr(Simulator, "node_states",
                        counted("rebuilds", node_states))
    for method in ("crash_node", "revive_node"):
        monkeypatch.setattr(Simulator, method,
                            counted("liveness", getattr(Simulator, method)))
    report = (Experiment("chord").nodes(24).duration(130.0).churn(False)
              .workload("lookups", rate=32, burst=4, start=20)
              .faults("crash").seed(5).run())
    assert calls["liveness"] > 0, "the run must crash and revive nodes"
    assert report.live_monitor.events_checked > 10_000
    # The first event builds the view; each crash and revive rebuilds it.
    assert calls["rebuilds"] <= calls["liveness"] + 1


# --------------------------------------------------------------- episode dedup


def test_drifting_detail_is_one_episode():
    """Satellite fix: episodes key on (property, node), detail is payload."""
    counter = itertools.count()

    def drifting(addr, state, timers, gs):
        yield f"members changed (revision {next(counter)})"

    prop = node_property("t.drifting", drifting)
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

    def toggled(gs):
        if flag["on"]:
            yield None, "bad"

    # A plain predicate is re-checked in full per event, so the toggle is
    # picked up immediately regardless of which node executed.
    prop = SafetyProperty("t.toggled", toggled)
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

    prop = node_property("t.always", always)
    sim, addrs = _tree_sim(nodes=3)
    monitor = LivePropertyMonitor([prop]).install(sim)
    sim.run(until=30.0)
    assert monitor.new_violations == 3
    victim = addrs[1]
    sim.crash_node(victim)
    sim.schedule_app(31.0, addrs[0], "join", {})
    sim.run(until=40.0)
    assert monitor.new_violations == 3, "a departure opens no episode"
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


def test_a_fixed_protocol_raises_no_false_alarm_over_inflight_messages():
    """``bullet.file_map_consistency`` and ``kvstore.quorum_intersection``
    are defined modulo in-flight copies, so the monitor must see them: a
    monitor blind to them booked 344 inconsistent states here."""
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
