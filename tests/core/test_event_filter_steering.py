"""Tests for event filters, steering-filter selection and filter safety."""

import pytest

from repro.api import Experiment
from repro.core import (
    ControllerStats,
    EventFilter,
    check_filter_safety,
    consequence_prediction,
    evaluate_violation,
    steering_filter,
)
from repro.mc import SearchBudget, TransitionConfig, TransitionSystem
from repro.runtime import Address, AppEvent, Message, MessageEvent, ResetEvent, TimerEvent
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
    flt = EventFilter(node=node, timer_name="recovery")
    assert flt.matches(TimerEvent(node=node, timer="recovery"))
    assert flt.action == "delay"


def test_steering_filter_for_each_event_kind():
    node = Address(1)
    assert steering_filter(node, [_message_event(node)]).message_type == "Join"
    assert steering_filter(node, [TimerEvent(node=node, timer="t")]).timer_name == "t"
    assert steering_filter(node, [AppEvent(node=node, call="join")]) is None
    assert steering_filter(node, [ResetEvent(node=node)]) is None
    assert steering_filter(node, [_message_event(Address(2))]) is None
    # The first refusable handler at the node wins; other kinds are passed.
    path = [ResetEvent(node=node), _message_event(Address(2)),
            TimerEvent(node=node, timer="t"), _message_event(node)]
    assert steering_filter(node, path).timer_name == "t"


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


def test_steering_filter_picks_first_local_handler():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    flt = steering_filter(scenario.n9, violation.path)
    assert flt is not None
    assert flt.node == scenario.n9
    first = next(e for e in violation.path if e.node == scenario.n9
                 and isinstance(e, (MessageEvent, TimerEvent)))
    assert flt.matches(first)
    # Node 1 also has a handler on the path (the forwarded Join).
    assert steering_filter(scenario.n1, violation.path) is not None
    # The resetting node n13 cannot steer its own reset.
    flt13 = steering_filter(scenario.n13, violation.path)
    assert flt13 is None or flt13.node == scenario.n13


def test_evaluate_violation_installs_safe_filter_for_figure2():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    flt = evaluate_violation(scenario.n9, system, snapshot, ALL_PROPERTIES,
                             violation, expected_violations=result.violations)
    assert flt is not None
    assert flt == steering_filter(scenario.n9, violation.path)


def test_check_filter_safety_flags_nothing_for_benign_filter():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    flt = EventFilter(node=scenario.n9, message_type=UPDATE_SIBLING,
                      message_src=scenario.n1)
    assert check_filter_safety(system, snapshot, ALL_PROPERTIES, flt,
                               budget=SearchBudget(max_states=400, max_depth=6),
                               expected_violations=result.violations)


#: Seed-1 steering runs whose rounds install filters.  In the crdtset run
#: two predictions of one round share a filter; the kvstore run is the
#: shortest of its scenario that books an unhelpful prediction.
RECHECK_RUNS = {
    "chord-partition-churn": lambda: (Experiment("chord")
                                      .scenario("partition-churn")
                                      .duration(120.0)),
    "crdtset-lww-divergence": lambda: (Experiment("crdtset")
                                       .scenario("lww-divergence")
                                       .duration(60.0)),
    "kvstore-optimistic-staleness": lambda: (Experiment("kvstore")
                                             .scenario("optimistic-staleness")
                                             .duration(22.0)),
}


@pytest.mark.parametrize("run", sorted(RECHECK_RUNS))
def test_every_installed_filter_passed_the_recheck(run, monkeypatch):
    """Rebuild each round's steering stage from its start state and its
    predictions alone (ROADMAP item 11.2): the predictions with no safe
    filter are the round's unhelpful ones, and the safe filters, one per
    action in prediction order, are the ones it installed."""
    folded = []
    fold = ControllerStats.fold

    def collect(stats, closed):
        folded.append((stats, closed))
        fold(stats, closed)

    monkeypatch.setattr(ControllerStats, "fold", collect)
    report = RECHECK_RUNS[run]().mode("steering").seed(1).run()
    controllers = {id(c.stats): c for c in report.controllers.values()}
    installed = unhelpful = shared = 0
    for stats, closed in folded:
        if closed.search is None:
            continue
        controller = controllers[id(stats)]
        safe, unsafe = [], 0
        for violation in closed.violations:
            flt = steering_filter(controller.addr, violation.path)
            if flt is None or not check_filter_safety(
                    controller.system, closed.start, controller.properties,
                    flt, budget=controller.config.safety_budget,
                    expected_violations=closed.violations):
                unsafe += 1
                continue
            key = (flt.message_type, flt.message_src, flt.timer_name)
            if key in safe:
                shared += 1
            else:
                safe.append(key)
        assert unsafe == closed.unhelpful
        assert safe == [(flt.message_type, flt.message_src, flt.timer_name)
                        for flt, _ in closed.installed]
        installed += len(closed.installed)
        unhelpful += closed.unhelpful
    assert installed > 0
    if run.startswith("crdtset"):
        assert shared > 0
    if run.startswith("kvstore"):
        assert unhelpful > 0
