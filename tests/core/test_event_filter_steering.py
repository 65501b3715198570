"""Tests for event filters, steering-point selection and filter safety."""

from repro.core import (
    EventFilter,
    check_filter_safety,
    choose_steering_point,
    consequence_prediction,
    derive_filter,
    evaluate_violation,
)
from repro.mc import SearchBudget, TransitionConfig, TransitionSystem
from repro.runtime import Address, AppEvent, FilterAction, Message, MessageEvent, ResetEvent, TimerEvent
from repro.systems.randtree import ALL_PROPERTIES, Figure2Scenario, UPDATE_SIBLING


def _message_event(node, mtype="Join", src=None):
    src = src or Address(9)
    return MessageEvent(node=node,
                        message=Message(mtype=mtype, src=src, dst=node, payload={}))


def test_message_filter_matches_type_source_and_node():
    node, src = Address(1), Address(2)
    flt = EventFilter(node=node, message_type="Join", message_src=src)
    assert flt.matches(_message_event(node, "Join", src))
    assert not flt.matches(_message_event(node, "Join", Address(3)))
    assert not flt.matches(_message_event(Address(5), "Join", src))
    assert not flt.matches(_message_event(node, "Probe", src))


def test_timer_filter_is_delayed_not_dropped():
    node = Address(1)
    flt = EventFilter(node=node, timer_name="recovery",
                      action=FilterAction.DROP_AND_RESET)
    event = TimerEvent(node=node, timer="recovery")
    assert flt.matches(event)
    assert flt.decision(event) is FilterAction.DELAY


def test_derive_filter_for_each_event_kind():
    node = Address(1)
    assert derive_filter(node, _message_event(node)).message_type == "Join"
    assert derive_filter(node, TimerEvent(node=node, timer="t")).timer_name == "t"
    assert derive_filter(node, AppEvent(node=node, call="join")) is None
    assert derive_filter(node, ResetEvent(node=node)) is None
    assert derive_filter(node, _message_event(Address(2))) is None


def test_filter_describe_is_readable():
    flt = EventFilter(node=Address(1), message_type="Join", message_src=Address(2))
    text = flt.describe()
    assert "Join" in text and "drop" in text


def _figure2_prediction():
    scenario = Figure2Scenario.build()
    system = TransitionSystem(scenario.protocol,
                              TransitionConfig(enable_resets=True,
                                               max_resets_per_node=1))
    snapshot = scenario.global_state()
    result = consequence_prediction(system, snapshot, ALL_PROPERTIES,
                                    SearchBudget(max_states=8000, max_depth=9))
    violation = min((v for v in result.violations
                     if v.violation.property_name == "randtree.children_siblings_disjoint"),
                    key=lambda v: v.depth)
    return scenario, system, snapshot, result, violation


def test_choose_steering_point_picks_local_message_event():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    point = choose_steering_point(scenario.n9, violation)
    assert point is not None
    assert point.node == scenario.n9
    # Node 1 also has a handler on the path (the forwarded Join).
    assert choose_steering_point(scenario.n1, violation) is not None
    # The resetting node n13 cannot steer its own reset.
    point13 = choose_steering_point(scenario.n13, violation)
    assert point13 is None or point13.node == scenario.n13


def test_evaluate_violation_installs_safe_filter_for_figure2():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    decision = evaluate_violation(scenario.n9, system, snapshot, ALL_PROPERTIES,
                                  violation,
                                  expected_violations=result.violations)
    assert decision.filter is not None
    assert decision.actionable
    assert decision.filter.node == scenario.n9


def test_check_filter_safety_flags_nothing_for_benign_filter():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    flt = EventFilter(node=scenario.n9, message_type=UPDATE_SIBLING,
                      message_src=scenario.n1)
    assert check_filter_safety(system, snapshot, ALL_PROPERTIES, flt,
                               budget=SearchBudget(max_states=400, max_depth=6),
                               expected_violations=result.violations)
