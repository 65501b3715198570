"""Summarised cross-node properties ≡ the whole-state predicates they replace.

Every built-in cross-node property is a :class:`SummaryProperty`: its check
is ``combine`` over one summary per node.  The predicates below are the
pre-summary checks, kept here as the reference the way ``FullRecheck``
keeps the monitor's; every summarised property must return the same
violations — same list, same order, same detail text — on states sampled
from seeded live runs of all six systems, on their model-checker
successors, on every search scenario's start state and its successors,
and on crafted violating states.  On every sampled parent → child step,
each property's verdict derived from the parent's must list what a
from-scratch ``check_all`` of the child finds.
"""

import pytest

from repro.api import Experiment, get_system
from repro.core.monitor import LivePropertyMonitor
from repro.faults import CrashRestart
from repro.mc import GlobalState, TransitionSystem
from repro.properties import (
    SafetyProperty,
    SummaryProperty,
    check_all,
    derive_all,
    get_property,
    listed_all,
    node_property,
    safety_properties,
    typed_check,
    typed_states,
)
from repro.runtime import Address, Message, make_addresses
from repro.systems.bulletprime.protocol import DIFF
from repro.systems.bulletprime.state import BulletState
from repro.systems.crdtset.state import CrdtState
from repro.systems.kvstore.protocol import REPLICATE
from repro.systems.kvstore.state import KvState
from repro.systems.paxos.state import PaxosState
from repro.systems.randtree.state import RandTreeState

SYSTEMS = ("randtree", "chord", "paxos", "bulletprime", "crdtset", "kvstore")


# ------------------------------------------------------------ the references


def _quorum_intersection(state):
    replicas = dict(typed_states(state, KvState))
    inflight = {}
    for message in state.inflight:
        if message.mtype == REPLICATE:
            version = tuple(message.get("version"))
            inflight.setdefault(message.get("key"), []).append(version)
    for addr in sorted(replicas):
        coordinator = replicas[addr]
        for key in sorted(coordinator.committed):
            version, _value = coordinator.committed[key]
            entry = coordinator.pending_writes.get(key)
            if entry is not None and tuple(entry["version"]) >= version:
                continue
            holders = sum(1 for replica in replicas.values()
                          if replica.stored_version(key) >= version)
            pending = sum(1 for v in inflight.get(key, ()) if v >= version)
            if holders + pending < coordinator.write_quorum:
                yield addr, (
                    f"committed write {key!r}@{version} is held by only "
                    f"{holders} replicas (W={coordinator.write_quorum}) "
                    f"with no repair pending")


def _agreement(state):
    chosen = {}
    for addr, node_state in typed_states(state, PaxosState):
        for value in node_state.chosen_values:
            chosen.setdefault(value, []).append(addr)
    if len(chosen) > 1:
        detail = ", ".join(
            f"value {value} chosen at {sorted(str(a) for a in addrs)}"
            for value, addrs in sorted(chosen.items()))
        yield None, f"more than one value chosen: {detail}"


def _file_map_consistency(state):
    inflight_blocks = {}
    for message in state.inflight:
        if message.mtype == DIFF:
            key = (message.src, message.dst)
            inflight_blocks.setdefault(key, set()).update(
                message.get("blocks", ()))
    receivers = dict(typed_states(state, BulletState))
    for sender_addr, sender in typed_states(state, BulletState):
        for receiver_addr in sender.peers:
            receiver = receivers.get(receiver_addr)
            if receiver is None:
                continue
            announced = sender.told(receiver_addr)
            known = receiver.view.get(sender_addr, set())
            pending = inflight_blocks.get((sender_addr, receiver_addr), set())
            missing = announced - known - pending
            if missing:
                yield sender_addr, (
                    f"sender believes receiver {receiver_addr} knows about "
                    f"blocks {sorted(missing)} but no Diff carrying them was "
                    f"delivered or is in flight")


def _view_is_subset_of_have(state):
    senders = dict(typed_states(state, BulletState))
    for receiver_addr, receiver in typed_states(state, BulletState):
        for sender_addr, view in receiver.view.items():
            sender = senders.get(sender_addr)
            if sender is None:
                continue
            phantom = view - sender.have
            if phantom:
                yield receiver_addr, (
                    f"receiver believes sender {sender_addr} has blocks "
                    f"{sorted(phantom)} which the sender does not have")


def _pairwise_converged(state):
    addresses = sorted(state.nodes)
    for addr_a in addresses:
        for addr_b in addresses:
            if addr_a != addr_b:
                for detail in _converged(addr_a, state.nodes[addr_a],
                                         addr_b, state.nodes[addr_b]):
                    yield addr_a, detail


def _converged(addr_a, local_a, addr_b, local_b):
    state_a, state_b = local_a.state, local_b.state
    if not isinstance(state_a, CrdtState) or not isinstance(state_b, CrdtState):
        return
    if state_a.pending or state_b.pending:
        return
    if state_a.delivery_vector() != state_b.delivery_vector():
        return
    seen_a, seen_b = state_a.observable(), state_b.observable()
    if seen_a != seen_b:
        yield (f"replicas {addr_a} and {addr_b} delivered the same ops but "
               f"observe different sets: "
               f"{sorted(seen_a, key=repr)} vs {sorted(seen_b, key=repr)}")
    if state_a.counter_value() != state_b.counter_value():
        yield (f"replicas {addr_a} and {addr_b} delivered the same ops but "
               f"disagree on the counter: {state_a.counter_value()} vs "
               f"{state_b.counter_value()}")


@typed_check(RandTreeState)
def _root_not_child_or_sibling(addr, state, timers, gs):
    if not state.is_root():
        return
    for other_addr, other in typed_states(gs, RandTreeState):
        if other_addr == addr:
            continue
        if addr in other.children:
            yield f"root {addr} appears as a child of {other_addr}"
        if addr in other.siblings:
            yield f"root {addr} appears as a sibling of {other_addr}"


REFERENCES = {
    "kvstore.quorum_intersection": SafetyProperty(
        "kvstore.quorum_intersection", _quorum_intersection),
    "paxos.at_most_one_value_chosen": SafetyProperty(
        "paxos.at_most_one_value_chosen", _agreement),
    "paxos.agreement": SafetyProperty("paxos.agreement", _agreement),
    "bullet.file_map_consistency": SafetyProperty(
        "bullet.file_map_consistency", _file_map_consistency),
    "bullet.view_subset_of_have": SafetyProperty(
        "bullet.view_subset_of_have", _view_is_subset_of_have),
    "crdtset.converged": SafetyProperty("crdtset.converged",
                                        _pairwise_converged),
    "randtree.root_not_child_or_sibling": node_property(
        "randtree.root_not_child_or_sibling", _root_not_child_or_sibling),
}

SUMMARISED = [get_property(name) for name in REFERENCES]


def test_every_builtin_cross_node_property_is_summarised():
    assert all(isinstance(prop, SummaryProperty) for prop in SUMMARISED)
    plain = [prop.name for system in SYSTEMS
             for prop in get_system(system).properties
             if type(prop) is SafetyProperty]
    assert plain == [], "a built-in cross-node property is not summarised"


# ---------------------------------------------------------------- the states


def _successors(system, states, per_state, steps):
    """The first ``per_state`` successors of each state; each
    ``(parent, event, child)`` is appended to ``steps``."""
    found = []
    for state in states:
        for event in system.enabled_events(state)[:per_state]:
            found.append(system.apply(state, event))
            steps.append((state, event, found[-1]))
    return found


def _kvstore_data_loss():
    # Three of four replicas crash together and come back empty.
    return (Experiment("kvstore").nodes(4).duration(150.0).seed(3)
            .faults(*(CrashRestart(at=40.0, duration=1.0, target=addr)
                      for addr in make_addresses(4)[1:])))


#: One seeded live run per system, each chosen so that the system's
#: cross-node properties fire (chord has none: its states check that every
#: property skips foreign state types).
LIVE_RUNS = {
    "randtree": lambda: (Experiment("randtree").nodes(5).duration(150.0)
                         .churn(interval=50.0).network(rst_loss=0.6)
                         .options(bootstrap_index=1, max_children=2,
                                  fix_recovery_timer=True)
                         .seed(9)),
    "chord": lambda: (Experiment("chord").nodes(5).duration(120.0)
                      .faults("crash").seed(7)),
    "paxos": lambda: Experiment("paxos").scenario("figure13-bug1").seed(1),
    "bulletprime": lambda: (Experiment("bulletprime").nodes(6)
                            .options(fix_shadow_map=False).faults("crash")
                            .seed(1)),
    "crdtset": lambda: (Experiment("crdtset").scenario("lww-divergence")
                        .seed(1)),
    "kvstore": _kvstore_data_loss,
}


def _live_samples(system_name, monkeypatch, steps, every=7, limit=40):
    """Frozen copies of the live global state: every ``every``-th event,
    and every event the monitor counted as inconsistent (``limit`` each),
    plus model-checker successors of each sample."""
    regular, inconsistent = [], []
    install = LivePropertyMonitor.install

    def install_sampler(monitor, sim):
        seen = {"inconsistent": 0}

        def sample(sim, node, event):
            bad = monitor.inconsistent_states > seen["inconsistent"]
            seen["inconsistent"] = monitor.inconsistent_states
            into = inconsistent if bad else regular
            if len(into) < limit and (bad or
                                      monitor.events_checked % every == 0):
                live = sim.node_states()
                into.append(GlobalState.from_snapshot(
                    {addr: s.clone() for addr, (s, _) in live.items()},
                    timers={addr: t for addr, (_, t) in live.items()},
                    inflight=sim.inflight_messages()))

        install(monitor, sim)
        sim.add_observer(sample)
        return monitor

    monkeypatch.setattr(LivePropertyMonitor, "install", install_sampler)
    report = LIVE_RUNS[system_name]().run()
    samples = regular + inconsistent
    protocol = next(iter(report.simulator.nodes.values())).protocol
    system = TransitionSystem(
        protocol, get_system(system_name).transition_factory())
    return samples + _successors(system, samples, 3, steps)


def _scenario_states(system_name, steps):
    """Every search scenario's start state and two levels of successors."""
    spec = get_system(system_name)
    states = []
    for scenario in spec.scenarios.values():
        if scenario.kind != "search":
            continue
        built = scenario.build()
        protocol, start = (built if isinstance(built, tuple)
                           else (built.protocol, built.global_state()))
        system = TransitionSystem(protocol, spec.transition_factory())
        level = [start]
        for _ in range(2):
            states.extend(level)
            level = _successors(system, level, 6, steps)
        states.extend(level)
    return states


def _assert_same(states):
    violated = set()
    for state in states:
        for prop in SUMMARISED:
            expected = REFERENCES[prop.name].violations(state)
            assert prop.violations(state) == expected, prop.name
            violated.update(v.property_name for v in expected)
    return violated


def _assert_derived(properties, steps):
    """A verdict derived from the parent's lists what ``check_all`` finds;
    a summary verdict whose summaries and keys did not move is the
    parent's own object."""
    for parent, event, child in steps:
        before = derive_all(properties, None, parent, ())
        after = derive_all(properties, before, child, (event.node,))
        assert listed_all(properties, after, child) == check_all(
            properties, child)
        for prop, old, new in zip(properties, before, after):
            if isinstance(prop, SummaryProperty):
                fresh = prop.derive(None, child, ())
                assert (new is old) == (fresh[:2] == old[:2]), prop.name


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_summaries_match_the_reference_on_sampled_states(
        system_name, monkeypatch):
    steps = []
    states = _live_samples(system_name, monkeypatch, steps)
    states += _scenario_states(system_name, steps)
    assert len(states) > 10
    violated = _assert_same(states)
    # The samples reach every cross-node property of the system.
    assert violated >= {prop.name for prop in get_system(system_name).properties
                        if prop.name in REFERENCES}
    _assert_derived(list(dict.fromkeys(
        safety_properties(get_system(system_name).properties) + SUMMARISED)),
        steps)


# ----------------------------------------------------------- crafted states


def _state(states, inflight=()):
    return GlobalState.from_snapshot(states, inflight=inflight)


A, B, C = Address(1), Address(2), Address(3)


def _kvstore_unrepaired():
    """The unrepaired committed write of the kvstore unit tests, plus an
    in-flight copy that holds a second write above quorum."""
    states = {addr: KvState(addr=addr, peers=(A, B, C), write_quorum=2)
              for addr in (A, B, C)}
    states[A].store["k0"] = ((2, 1), "fresh")
    states[A].committed["k0"] = ((2, 1), "fresh")
    states[B].store["k1"] = ((1, 2), "x")
    states[B].committed["k1"] = ((1, 2), "x")
    states[C].store["k1"] = ((1, 2), "x")
    states[C].committed["k1"] = ((3, 3), "y")
    copy = Message(src=C, dst=A, mtype=REPLICATE,
                   payload={"key": "k1", "version": (3, 3), "value": "y"})
    return _state(states, inflight=(copy,))


def _paxos_split():
    states = {addr: PaxosState(addr=addr) for addr in (A, B, C)}
    states[A].chosen_values = {5}
    states[B].chosen_values = {7, 5}
    return _state(states)


def _bullet_cleared_shadow():
    states = {addr: BulletState(addr=addr, peers=tuple(
        peer for peer in (A, B, C) if peer != addr)) for addr in (A, B, C)}
    states[A].have = {1, 2, 3}
    states[A].shadow = {B: set(), C: {3}}
    states[B].view = {A: {1}, C: {9}}
    states[C].view = {A: {1, 2}}
    diff = Message(src=A, dst=C, mtype=DIFF, payload={"blocks": [2]})
    return _state(states, inflight=(diff,))


def _crdt_diverged():
    states = {addr: CrdtState(addr=addr, peers=(A, B, C))
              for addr in (C, A, B)}
    for addr in (A, B, C):
        states[addr].delivered = {1: 1}
    states[A].adds = {"x": {(1, 1)}}
    states[B].incs = {1: 2}
    states[C].adds = {"x": {(1, 1)}}
    return _state(states)


def _randtree_root_in_lists():
    states = {addr: RandTreeState(addr=addr) for addr in (A, B, C)}
    for addr in (A, B):
        states[addr].joined = True
        states[addr].root = addr
    states[B].children = {A, C}
    states[C].siblings = {A, B}
    return _state(states)


def test_summaries_match_the_reference_on_crafted_violations():
    states = [_kvstore_unrepaired(), _paxos_split(), _bullet_cleared_shadow(),
              _crdt_diverged(), _randtree_root_in_lists()]
    # One mixed state: every property skips the nodes it says nothing about.
    mixed = {}
    for state in states:
        mixed.update((Address(100 + len(mixed)), local.state)
                     for local in state.nodes.values())
    assert _assert_same(states + [_state(mixed)]) == set(REFERENCES)


def test_the_crafted_kvstore_state_counts_an_inflight_copy():
    violations = get_property("kvstore.quorum_intersection").violations(
        _kvstore_unrepaired())
    assert [(v.node, v.detail) for v in violations] == [
        (A, "committed write 'k0'@(2, 1) is held by only 1 replicas (W=2) "
            "with no repair pending"),
        (C, "committed write 'k1'@(3, 3) is held by only 0 replicas (W=2) "
            "with no repair pending")]
