"""Tests for the immediate safety check and error-path replay."""

from repro.core import ImmediateSafetyCheck, consequence_prediction, replay_error_path
from repro.mc import SearchBudget, TransitionConfig, TransitionSystem
from repro.runtime import Address, Message, MessageEvent
from repro.systems.randtree import (
    ALL_PROPERTIES,
    Figure2Scenario,
    UPDATE_SIBLING,
)


def _figure2():
    scenario = Figure2Scenario.build()
    system = TransitionSystem(scenario.protocol,
                              TransitionConfig(enable_resets=True,
                                               max_resets_per_node=1))
    return scenario, system, scenario.global_state()


def test_isc_blocks_update_sibling_that_creates_inconsistency():
    scenario, system, snapshot = _figure2()
    isc = ImmediateSafetyCheck(system, ALL_PROPERTIES)
    n9_state = snapshot.nodes[scenario.n9].state.clone()
    # n13 is already a child of n9; the incoming UpdateSibling would make it a
    # sibling as well.
    event = MessageEvent(
        node=scenario.n9,
        message=Message(mtype=UPDATE_SIBLING, src=scenario.n1, dst=scenario.n9,
                        payload={"sibling": scenario.n13}))
    outcome = isc.check(scenario.n9, n9_state,
                        snapshot.nodes[scenario.n9].timers, event,
                        neighborhood=snapshot)
    assert not outcome.allowed
    assert [v.property_name for v in outcome.new_violations] == [
        "randtree.children_siblings_disjoint"]


def test_isc_allows_harmless_update_sibling():
    scenario, system, snapshot = _figure2()
    isc = ImmediateSafetyCheck(system, ALL_PROPERTIES)
    other = Address(50)
    event = MessageEvent(
        node=scenario.n9,
        message=Message(mtype=UPDATE_SIBLING, src=scenario.n1, dst=scenario.n9,
                        payload={"sibling": other}))
    outcome = isc.check(scenario.n9, snapshot.nodes[scenario.n9].state.clone(),
                        snapshot.nodes[scenario.n9].timers, event,
                        neighborhood=snapshot)
    assert outcome.allowed


def test_isc_ignores_pre_existing_violations():
    scenario, system, snapshot = _figure2()
    # Introduce a pre-existing inconsistency at another node.
    snapshot.nodes[scenario.n1].state.siblings.add(scenario.n9)
    snapshot.nodes[scenario.n1].state.children.add(scenario.n9)
    isc = ImmediateSafetyCheck(system, ALL_PROPERTIES)
    event = MessageEvent(
        node=scenario.n9,
        message=Message(mtype=UPDATE_SIBLING, src=scenario.n1, dst=scenario.n9,
                        payload={"sibling": Address(50)}))
    outcome = isc.check(scenario.n9, snapshot.nodes[scenario.n9].state.clone(),
                        snapshot.nodes[scenario.n9].timers, event,
                        neighborhood=snapshot)
    assert outcome.allowed


def test_replay_reproduces_figure2_path_on_fresh_snapshot():
    scenario, system, snapshot = _figure2()
    result = consequence_prediction(system, snapshot, ALL_PROPERTIES,
                                    SearchBudget(max_states=8000, max_depth=9))
    violation = min((v for v in result.violations
                     if v.violation.property_name == "randtree.children_siblings_disjoint"),
                    key=lambda v: v.depth)
    replay = replay_error_path(system, scenario.global_state(), violation.path,
                               ALL_PROPERTIES)
    assert replay.reproduced
    assert replay.violations
    assert replay.steps_executed > 0


def test_replay_does_not_reproduce_on_fixed_protocol():
    scenario, system, snapshot = _figure2()
    result = consequence_prediction(system, snapshot, ALL_PROPERTIES,
                                    SearchBudget(max_states=8000, max_depth=9))
    violation = min((v for v in result.violations
                     if v.violation.property_name == "randtree.children_siblings_disjoint"),
                    key=lambda v: v.depth)
    fixed = Figure2Scenario.build(fixed=True)
    fixed_system = TransitionSystem(fixed.protocol,
                                    TransitionConfig(enable_resets=True,
                                                     max_resets_per_node=1))
    replay = replay_error_path(fixed_system, fixed.global_state(),
                               violation.path, ALL_PROPERTIES)
    assert not replay.reproduced
