"""Tests for the immediate safety check and error-path replay."""

import pytest

from repro.api import Experiment
from repro.core import ImmediateSafetyCheck, consequence_prediction, replay_error_path
from repro.faults import CrashRestart
from repro.mc import GlobalState, SearchBudget, TransitionConfig, TransitionSystem
from repro.properties import check_all
from repro.runtime import Address, Message, MessageEvent, make_addresses
from repro.runtime.events import ResetEvent
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
    new = isc.check(scenario.n9, n9_state,
                    snapshot.nodes[scenario.n9].timers, event,
                    neighborhood=snapshot)
    assert [v.property_name for v in new] == [
        "randtree.children_siblings_disjoint"]


def test_isc_allows_harmless_update_sibling():
    scenario, system, snapshot = _figure2()
    isc = ImmediateSafetyCheck(system, ALL_PROPERTIES)
    other = Address(50)
    event = MessageEvent(
        node=scenario.n9,
        message=Message(mtype=UPDATE_SIBLING, src=scenario.n1, dst=scenario.n9,
                        payload={"sibling": other}))
    new = isc.check(scenario.n9, snapshot.nodes[scenario.n9].state.clone(),
                    snapshot.nodes[scenario.n9].timers, event,
                    neighborhood=snapshot)
    assert new == []


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
    new = isc.check(scenario.n9, snapshot.nodes[scenario.n9].state.clone(),
                    snapshot.nodes[scenario.n9].timers, event,
                    neighborhood=snapshot)
    assert new == []


def _full_recheck(isc, addr, live_state, live_timers, event, neighborhood=None):
    """The reference the check is held to: ``check_all`` on the base state
    and on its speculative successor, and the violations the second adds
    on ``(property, node, detail)``."""
    if isinstance(event, ResetEvent):
        return []
    if neighborhood is None:
        neighborhood = GlobalState(nodes={})
    base = neighborhood.successor(addr, live_state, live_timers)
    before = {(v.property_name, v.node, v.detail)
              for v in check_all(isc.properties, base)}
    after = check_all(isc.properties, isc.system.apply(base, event))
    return [v for v in after
            if (v.property_name, v.node, v.detail) not in before]


#: One seeded isc-only run per system; each blocks events, but crdtset's
#: check never finds a new violation on any run tried.
ISC_RUNS = {
    "randtree": lambda: (Experiment("randtree").nodes(5).duration(150.0)
                         .churn(interval=50.0).network(rst_loss=0.6)
                         .options(bootstrap_index=1, max_children=2,
                                  fix_recovery_timer=True)),
    "chord": lambda: (Experiment("chord").nodes(5).duration(120.0)
                      .faults("crash")),
    "paxos": lambda: Experiment("paxos").scenario("figure13-bug1"),
    "bulletprime": lambda: (Experiment("bulletprime").nodes(6)
                            .options(fix_shadow_map=False).faults("crash")),
    "crdtset": lambda: Experiment("crdtset").scenario("lww-divergence"),
    "kvstore": lambda: (Experiment("kvstore").nodes(4).duration(150.0)
                        .faults(*(CrashRestart(at=40.0, duration=1.0,
                                               target=addr)
                                  for addr in make_addresses(4)[1:]))),
}


@pytest.mark.parametrize("system", sorted(ISC_RUNS))
def test_isc_returns_exactly_what_a_full_recheck_adds(system, monkeypatch):
    """Every check of a live isc-only run, against the reference on the
    same ``(node, live state, event)``: same list, order and detail."""
    counts = {"checked": 0, "blocked": 0}
    check = ImmediateSafetyCheck.check

    def held_to_reference(isc, addr, live_state, live_timers, event, *,
                          neighborhood=None):
        new = check(isc, addr, live_state, live_timers, event,
                    neighborhood=neighborhood)
        assert new == _full_recheck(isc, addr, live_state, live_timers,
                                    event, neighborhood)
        counts["checked"] += 1
        counts["blocked"] += bool(new)
        return new

    monkeypatch.setattr(ImmediateSafetyCheck, "check", held_to_reference)
    ISC_RUNS[system]().mode("isc-only").seed(1).run()
    assert counts["checked"] > 50
    assert counts["blocked"] > 0 or system == "crdtset"


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
