"""Tests for the safety-property framework."""

from repro.mc import GlobalState, SafetyProperty, check_all, node_property
from repro.runtime import Address
from repro.systems.randtree import RandTree, RandTreeConfig


def _gs(**node_kwargs):
    protocol = RandTree(RandTreeConfig())
    a = Address(1)
    state = protocol.initial_state(a)
    for key, value in node_kwargs.items():
        setattr(state, key, value)
    return a, GlobalState.from_snapshot({a: state})


def test_safety_property_holds_and_violations():
    prop = SafetyProperty("always_fails", lambda gs: [(None, "boom")])
    _, gs = _gs()
    assert not prop.holds(gs)
    violations = prop.violations(gs)
    assert len(violations) == 1
    assert violations[0].property_name == "always_fails"
    assert "boom" in str(violations[0])


def test_node_property_reports_per_node():
    prop = node_property("joined_nodes_have_root",
                         lambda addr, state, timers, gs:
                         ["joined without root"] if state.joined and state.root is None else [])
    a, ok = _gs(joined=False)
    assert prop.holds(ok)
    a, bad = _gs(joined=True, root=None)
    violations = prop.violations(bad)
    assert violations and violations[0].node == a


def test_check_all_combines_properties():
    p1 = SafetyProperty("p1", lambda gs: [(None, "x")])
    p2 = SafetyProperty("p2", lambda gs: [])
    _, gs = _gs()
    found = check_all([p1, p2], gs)
    assert [v.property_name for v in found] == ["p1"]


def test_mc_package_reexports_the_new_property_types():
    import repro.mc as mc
    from repro.properties import base as new_base

    # ``from repro.mc import SafetyProperty`` must hand out the real
    # classes (no wrappers, no warning on import).
    assert mc.SafetyProperty is new_base.SafetyProperty
    assert mc.PropertyViolation is new_base.PropertyViolation
    assert mc.check_all is new_base.check_all
    assert mc.node_property is new_base.node_property
