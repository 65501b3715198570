"""Property combinators: node/summary scoping, severities, filtering."""

import pytest

from repro.mc import GlobalState
from repro.properties import (
    NodeScopedProperty,
    SafetyProperty,
    SummaryProperty,
    check_all,
    eventually,
    node_property,
    safety_properties,
)
from repro.runtime import Address
from repro.systems.randtree import RandTree, RandTreeConfig


def _tree_state(count=2, **overrides):
    protocol = RandTree(RandTreeConfig())
    addrs = [Address(i) for i in range(1, count + 1)]
    states = {}
    for addr in addrs:
        state = protocol.initial_state(addr)
        for key, value in overrides.items():
            setattr(state, key, value)
        states[addr] = state
    return addrs, GlobalState.from_snapshot(states)


def test_node_property_is_node_scoped_by_default():
    prop = node_property("t.local", lambda a, s, t, gs: [])
    assert isinstance(prop, NodeScopedProperty)
    assert prop.scope == "node"
    # A check across nodes is a summary property or a plain predicate.
    assert SummaryProperty("t.summary", lambda a, local: None,
                           lambda summaries, keys: []).scope == "summary"
    assert SafetyProperty("t.cross", lambda gs: []).scope == "global"


def test_violations_at_checks_a_single_node():
    flagged = []

    def check(addr, state, timers, gs):
        flagged.append(addr)
        yield "always bad"

    prop = node_property("t.single", check)
    addrs, gs = _tree_state(count=3)
    flagged.clear()
    violations = prop.violations_at(gs, addrs[1])
    assert flagged == [addrs[1]]
    assert [v.node for v in violations] == [addrs[1]]
    # A node outside the state yields nothing.
    assert prop.violations_at(gs, Address(99)) == []


def test_summary_property_combines_summaries_in_node_order():
    seen = []

    def combine(summaries, keys):
        seen.append((list(summaries.items()), keys))
        for addr in summaries:
            yield addr, f"summarised {addr}"

    prop = SummaryProperty(
        "t.summary", lambda addr, local: None if addr == Address(2) else addr.host,
        combine, inflight_key=lambda message: message)
    addrs, gs = _tree_state(count=3)
    reordered = GlobalState(nodes={addr: gs.nodes[addr]
                                   for addr in reversed(addrs)},
                            inflight=("a", "b"))
    violations = prop.violations(reordered)
    # State order, a None summary left out, the in-flight keys in order.
    assert seen == [([(Address(3), 3), (Address(1), 1)], ("a", "b"))]
    assert [v.node for v in violations] == [Address(3), Address(1)]


def test_unknown_severity_rejected():
    with pytest.raises(ValueError, match="unknown severity"):
        SafetyProperty("t.bad", lambda gs: [], severity="catastrophic")


def test_default_severity_and_tags():
    prop = SafetyProperty("t.defaults", lambda gs: [])
    assert prop.severity == "error"
    assert prop.tags == frozenset()
    tagged = node_property("t.tagged", lambda a, s, t, gs: [],
                           severity="warning", tags=("x", "y"))
    assert tagged.severity == "warning"
    assert tagged.tags == frozenset({"x", "y"})


def test_check_all_and_safety_properties_skip_liveness():
    live = eventually("t.liveness", lambda gs: True, within=10.0)
    bad = SafetyProperty("t.always", lambda gs: [(None, "boom")])
    _, gs = _tree_state()
    mixed = [live, bad]
    assert safety_properties(mixed) == [bad]
    found = check_all(mixed, gs)
    assert [v.property_name for v in found] == ["t.always"]


def test_check_all_with_empty_property_set():
    _, gs = _tree_state()
    assert check_all([], gs) == []


def test_describe_carries_the_selectable_surface():
    prop = node_property("t.desc", lambda a, s, t, gs: [], "described",
                         severity="critical", tags=("k",))
    info = prop.describe()
    assert info == {"id": "t.desc", "kind": "safety", "severity": "critical",
                    "tags": ["k"], "description": "described",
                    "scope": "node"}


def test_mixed_state_types_do_not_crash_any_bundled_property():
    from repro.systems.bulletprime.properties import (
        ALL_PROPERTIES as BULLET_PROPERTIES,
    )
    from repro.systems.chord import Chord, ChordConfig
    from repro.systems.chord.properties import ALL_PROPERTIES as CHORD_PROPERTIES
    from repro.systems.paxos.properties import ALL_PROPERTIES as PAXOS_PROPERTIES
    from repro.systems.randtree.properties import (
        ALL_PROPERTIES as RANDTREE_PROPERTIES,
    )

    tree = RandTree(RandTreeConfig())
    ring = Chord(ChordConfig(bootstrap=(Address(2),)))
    gs = GlobalState.from_snapshot({
        Address(1): tree.initial_state(Address(1)),
        Address(2): ring.initial_state(Address(2)),
    })
    every = (RANDTREE_PROPERTIES + CHORD_PROPERTIES + PAXOS_PROPERTIES
             + BULLET_PROPERTIES)
    # Every bundled property must guard against foreign state types: a
    # cross-system selection never crashes, it just finds nothing foreign.
    violations = check_all(every, gs)
    assert all("." in v.property_name for v in violations)
