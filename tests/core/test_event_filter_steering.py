"""Tests for event filters, steering-filter selection and filter safety."""

from dataclasses import dataclass

import pytest

import repro.core.controller as controller_module
from repro.api import Experiment
from repro.core import (
    ControllerStats,
    CrystalBallConfig,
    EventFilter,
    Mode,
    attach_crystalball,
    check_filter_safety,
    consequence_prediction,
    steering_filter,
)
from repro.mc import GlobalState, SearchBudget, TransitionConfig, TransitionSystem
from repro.properties import check_all, node_property
from repro.runtime import (
    Address,
    AppEvent,
    Message,
    MessageEvent,
    NetworkModel,
    NodeState,
    Protocol,
    ResetEvent,
    Simulator,
    TimerEvent,
)
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


def test_figure2_filter_passes_the_recheck():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    flt = steering_filter(scenario.n9, violation.path)
    assert flt is not None
    assert check_filter_safety(system, snapshot, ALL_PROPERTIES, flt,
                               budget=CrystalBallConfig().safety_budget,
                               expected_violations=result.violations)


def test_check_filter_safety_flags_nothing_for_benign_filter():
    scenario, system, snapshot, result, violation = _figure2_prediction()
    flt = EventFilter(node=scenario.n9, message_type=UPDATE_SIBLING,
                      message_src=scenario.n1)
    assert check_filter_safety(system, snapshot, ALL_PROPERTIES, flt,
                               budget=SearchBudget(max_states=400, max_depth=6),
                               expected_violations=result.violations)


PINGER, PINGED = Address(1), Address(2)


@dataclass
class AlarmState(NodeState):
    alarm: bool = False


class PingOnce(Protocol):
    """Two nodes: ``PINGER``'s one timer sends ``PINGED`` a Ping, and either
    handling that Ping or losing the connection raises the node's alarm."""

    name = "PingOnce"

    def initial_state(self, addr):
        return AlarmState()

    def on_start(self, ctx, state):
        if ctx.self_addr == PINGER:
            ctx.set_timer("ping", 100.0)

    def handle_timer(self, ctx, state, timer):
        ctx.send(PINGED, "Ping", {})

    def handle_message(self, ctx, state, message):
        state.alarm = True

    def handle_connection_error(self, ctx, state, peer):
        state.alarm = True

    def neighbors(self, state):
        return [PINGER, PINGED]


CALM = node_property("toy.calm", lambda addr, state, timers, gs:
                     ["alarm"] if state.alarm else [])


def test_a_filter_whose_refusal_breaks_a_property_is_refused(monkeypatch):
    """Refusing the Ping resets the connection, and the pinger's
    connection-error handler then raises its alarm, which nothing in the
    unfiltered model does (resets are off): the re-check refuses the
    message filter, so the pinged node's rounds book every prediction
    unhelpful and install nothing, re-checking the action once a round."""
    transition = TransitionConfig(enable_resets=False)
    system = TransitionSystem(PingOnce(), transition)
    start = GlobalState.from_snapshot(
        {PINGER: AlarmState(), PINGED: AlarmState()}, timers={PINGER: ["ping"]})
    budget = CrystalBallConfig().safety_budget
    predicted = consequence_prediction(system, start, [CALM], budget).violations
    assert [(v.violation.node, len(v.path)) for v in predicted] == [(PINGED, 2)]
    refuse_ping = steering_filter(PINGED, predicted[0].path)
    assert refuse_ping.message_type == "Ping"
    assert not check_filter_safety(system, start, [CALM], refuse_ping,
                                   budget=budget, expected_violations=predicted)
    # The pinger's own action, its timer, passes: a refused timer fires later.
    assert check_filter_safety(system, start, [CALM],
                               steering_filter(PINGER, predicted[0].path),
                               budget=budget, expected_violations=predicted)

    rechecks = []
    recheck = controller_module.check_filter_safety

    def counted(*args, **kwargs):
        rechecks.append(args[3].node)
        return recheck(*args, **kwargs)

    monkeypatch.setattr(controller_module, "check_filter_safety", counted)
    sim = Simulator(PingOnce, NetworkModel(), seed=1)
    for addr in (PINGER, PINGED):
        sim.add_node(addr)
    controllers = attach_crystalball(sim, [CALM], config=CrystalBallConfig(
        mode=Mode.STEERING, transition=transition))
    sim.run(until=35.0)
    pinged = controllers[PINGED]
    stats = pinged.stats
    assert stats.model_checker_runs == 2
    # The second round replays the first one's path and predicts it again.
    assert len(pinged.last_round.violations) == 2
    assert stats.steering_unhelpful == stats.violations_predicted == 3
    assert stats.filters_installed == 0 and pinged.filters == []
    assert rechecks.count(PINGED) == stats.model_checker_runs
    assert controllers[PINGER].stats.filters_installed == 2


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


def _reference_recheck(controller, closed, flt):
    """The re-check of ``flt`` as a fresh search.  A timer filter's re-check
    is skipped; its verdict here comes from the search it used to run.  The
    model applies a refused timer as usual, so that search was the
    unfiltered prediction within the safety budget, held to the re-check's
    rule for which violations it ignores."""
    if flt.message_type is not None:
        return check_filter_safety(controller.system, closed.start,
                                   controller.properties, flt,
                                   budget=controller.config.safety_budget,
                                   expected_violations=closed.violations)
    ignored = {(v.property_name, v.node)
               for v in check_all(controller.properties, closed.start)}
    ignored |= {(v.violation.property_name, v.violation.node)
                for v in closed.violations}
    result = consequence_prediction(controller.system, closed.start,
                                    controller.properties,
                                    controller.config.safety_budget)
    return all((v.violation.property_name, v.violation.node) in ignored
               for v in result.violations)


@pytest.mark.parametrize("run", sorted(RECHECK_RUNS))
def test_every_installed_filter_passed_the_recheck(run, monkeypatch):
    """Rebuild each round's steering stage from its start state and its
    predictions alone (ROADMAP item 11.2), re-checking every prediction's
    filter afresh (:func:`_reference_recheck`): the predictions with no
    safe filter are the round's unhelpful ones, and the safe filters, one
    per action in prediction order, are the ones it installed."""
    folded = []
    fold = ControllerStats.fold

    def collect(stats, closed):
        folded.append((stats, closed))
        fold(stats, closed)

    monkeypatch.setattr(ControllerStats, "fold", collect)
    report = RECHECK_RUNS[run]().mode("steering").seed(1).run()
    controllers = {id(c.stats): c for c in report.controllers.values()}
    installed = unhelpful = shared = 0
    actions = set()
    for stats, closed in folded:
        if closed.search is None:
            continue
        controller = controllers[id(stats)]
        safe, unsafe = [], 0
        for violation in closed.violations:
            flt = steering_filter(controller.addr, violation.path)
            if flt is None or not _reference_recheck(controller, closed, flt):
                unsafe += 1
                continue
            actions.add(flt.action)
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
    # Each run installs a timer filter and a message filter.
    assert actions == {"delay", "drop_and_reset"}
    if run.startswith("crdtset"):
        assert shared > 0
    if run.startswith("kvstore"):
        assert unhelpful > 0
