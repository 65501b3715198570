"""The checker's model is the runtime: every live step, re-run in the model.

Consequence prediction reports only reachable violations if
``TransitionSystem.apply`` does what the live node does.  Each case runs a
seeded live deployment and, at every step the simulator executes (a message,
a timer, an application call, a connection error, a reset, a
``revive_node`` reboot), applies the same event through
``TransitionSystem.apply`` to a ``GlobalState`` built from the live nodes
just before the step.  The step conforms when the model and the live node
end with

* the same state signature,
* the same armed timers,
* the same sent messages, ignoring the simulator's message number and
  checkpoint stamp and counting only messages to nodes in the state (the
  model drops the rest),
* the same closed peers (again only nodes in the state).

A reset's RST notifications are the model's documented over-approximation
(it warns every snapshot neighbour), so a reset's closed peers are not
compared.

A *site* is ``(event type, message type / timer name / call)``.
:data:`KNOWN_DIVERGENCES` names the sites where a system is known to
diverge, and the check is strict both ways: a divergence outside the table
is refused, and so is a listed site that no longer diverges.  Two test-only
protocols, one reading ``ctx.now`` and one drawing from ``ctx.rng``, show
that the check refuses what it should.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import pytest

from repro.api import Experiment
from repro.mc import GlobalState, NodeLocal, TransitionSystem
from repro.mc.global_state import ErrorNotification
from repro.runtime import (
    AppEvent,
    ConnectionErrorEvent,
    Event,
    MessageEvent,
    NodeState,
    Protocol,
    ResetEvent,
    Simulator,
    TimerEvent,
    make_addresses,
)
from repro.runtime.serialization import freeze

#: System -> the sites where its live steps and model steps differ.
#: Bullet': the ``request`` timer picks a block with ``ctx.rng.choice``,
#: which the model draws from a fresh ``Random(0)``; a ``Block`` delivery
#: that completes the download stores ``ctx.now``, which is 0.0 in the model.
KNOWN_DIVERGENCES = {"bulletprime": {("timer", "request"), ("msg", "Block")}}

COMPARED = ("state", "timers", "sent", "closed")


# ------------------------------------------------------- planted protocols

@dataclass
class _PlantedState(NodeState):
    ticks: int = 0
    last_tick: float = -1.0
    pings: int = 0


class _Planted(Protocol):
    """A ticking node that sends each tick's ping to the next node."""

    name = "planted"

    def __init__(self, peers: list) -> None:
        self.peers = peers

    def initial_state(self, addr) -> _PlantedState:
        return _PlantedState()

    def on_start(self, ctx, state) -> None:
        ctx.set_timer("tick", 1.0)

    def handle_timer(self, ctx, state, timer) -> None:
        state.ticks += 1
        index = self.peers.index(ctx.self_addr)
        ctx.send(self.peers[(index + 1) % len(self.peers)], "Ping",
                 self.ping(ctx))
        ctx.set_timer("tick", 1.0)

    def handle_message(self, ctx, state, message) -> None:
        state.pings += 1

    def ping(self, ctx) -> dict:
        return {}


class _ReadsTheClock(_Planted):
    """Stores the host's time in protocol state, as Bullet' does."""

    def handle_timer(self, ctx, state, timer) -> None:
        super().handle_timer(ctx, state, timer)
        state.last_tick = ctx.now


class _DrawsFromTheRng(_Planted):
    """Puts a draw from the host's RNG in every ping."""

    def ping(self, ctx) -> dict:
        return {"nonce": ctx.rng.random()}


def _planted_run(protocol: type) -> Callable[[], None]:
    def run() -> None:
        addresses = make_addresses(3)
        sim = Simulator(lambda: protocol(addresses), seed=1)
        for addr in addresses:
            sim.add_node(addr)
        sim.run(until=10.0)
    return run


# ------------------------------------------------------------------ cases

@dataclass(frozen=True)
class Case:
    name: str
    system: str
    run: Callable[[], None]
    #: the sites the check must refuse: none for a bundled system.
    refused: frozenset = frozenset()


def _experiment(system: str, scenario: Optional[str] = None
                ) -> Callable[[], None]:
    def run() -> None:
        experiment = Experiment(system).seed(1)
        if scenario is not None:
            experiment = experiment.scenario(scenario)
        experiment.run()
    return run


CASES = [
    *(Case(system, system, _experiment(system))
      for system in ("randtree", "chord", "paxos", "bulletprime", "kvstore",
                     "crdtset")),
    # The default Paxos run is only 39 steps; bug2 resets an acceptor.
    Case("paxos:figure13-bug1", "paxos", _experiment("paxos", "figure13-bug1")),
    Case("paxos:figure13-bug2", "paxos", _experiment("paxos", "figure13-bug2")),
    # The proposer fail-stops and is revived: the ``revive_node`` reboots.
    Case("paxos:leader-crash", "paxos", _experiment("paxos", "leader-crash")),
    Case("planted:now", "planted:now", _planted_run(_ReadsTheClock),
         refused=frozenset({("diverges", ("timer", "tick"))})),
    Case("planted:rng", "planted:rng", _planted_run(_DrawsFromTheRng),
         refused=frozenset({("diverges", ("timer", "tick"))})),
]


# ------------------------------------------------------------- the check

def _site(kind: str, event: Event) -> tuple:
    if isinstance(event, MessageEvent):
        return ("msg", event.message.mtype)
    if isinstance(event, TimerEvent):
        return ("timer", event.timer)
    if isinstance(event, AppEvent):
        return ("app", event.call)
    if isinstance(event, ConnectionErrorEvent):
        return ("connerr", None)
    return (kind, None)


def _sent(message) -> tuple:
    """A sent message without the simulator's number and stamp."""
    return (message.mtype, message.src, message.dst,
            freeze(dict(message.payload)), message.transport, message.control)


@dataclass
class Conformance:
    """Every executed step of one run: how many per site, and the
    divergent ones by site and differing fields."""

    steps: Counter
    divergent: Counter
    #: the first step per divergent ``(site, fields)``: (time, node,
    #: {field: (live, model)}), a state by its differing fields.
    first: dict

    def divergent_sites(self) -> set:
        return {site for site, _ in self.divergent}

    def refusals(self, system: str) -> set:
        """The check's verdict: every divergent site outside the table,
        and every listed site that no longer diverges."""
        observed, known = self.divergent_sites(), KNOWN_DIVERGENCES.get(
            system, set())
        return ({("diverges", site) for site in observed - known}
                | {("listed but conforms", site) for site in known - observed})

    def describe(self) -> str:
        lines = [f"{sum(self.steps.values())} steps, "
                 f"{sum(self.divergent.values())} divergent"]
        for (site, fields), count in sorted(self.divergent.items(), key=repr):
            time, node, detail = self.first[site, fields]
            lines.append(f"  {site}: {count} steps differ in {fields}; first "
                         f"at t={time:.3f} on {node}: {detail}")
        return "\n".join(lines)


class _Recorder:
    """Wraps the simulator's step entry points and its send and
    connection-closing paths; checks each step against the model."""

    def __init__(self) -> None:
        self.result = Conformance(Counter(), Counter(), {})
        self._active: Optional[tuple[list, list]] = None

    def install(self, patch: pytest.MonkeyPatch) -> None:
        execute = Simulator._execute_event
        reset = Simulator._perform_reset
        revive = Simulator.revive_node
        transmit = Simulator._transmit
        break_connection = Simulator._break_connection
        recorder = self

        def _execute_event(sim, event):
            node = sim.nodes.get(event.node)
            if node is None or not node.alive:
                return execute(sim, event)
            executed = node.stats.events_executed
            return recorder.step(sim, "event", event, lambda: execute(
                sim, event), lambda: node.stats.events_executed > executed)

        def _perform_reset(sim, addr):
            if addr not in sim.nodes:
                return reset(sim, addr)
            return recorder.step(sim, "reset", ResetEvent(node=addr),
                                 lambda: reset(sim, addr))

        def revive_node(sim, addr):
            if addr not in sim.nodes:
                return revive(sim, addr)
            return recorder.step(sim, "revive", ResetEvent(node=addr),
                                 lambda: revive(sim, addr))

        def _transmit(sim, node, message):
            if recorder._active is not None:
                recorder._active[0].append(message)
            return transmit(sim, node, message)

        def _break_connection(sim, node, peer):
            if recorder._active is not None:
                recorder._active[1].append(peer)
            return break_connection(sim, node, peer)

        for name, wrapper in (("_execute_event", _execute_event),
                              ("_perform_reset", _perform_reset),
                              ("revive_node", revive_node),
                              ("_transmit", _transmit),
                              ("_break_connection", _break_connection)):
            patch.setattr(Simulator, name, wrapper)

    def step(self, sim: Simulator, kind: str, event: Event,
             live_step: Callable[[], None],
             executed: Callable[[], bool] = lambda: True) -> None:
        assert self._active is None, "a step inside a step"
        addr = event.node
        node = sim.nodes[addr]
        nodes = {other: NodeLocal(state=live.state, timers=live.timer_names())
                 for other, live in sim.nodes.items()
                 if live.alive or other == addr}
        if isinstance(event, TimerEvent):
            # The simulator disarms a timer as it fires; it was armed.
            nodes[addr] = NodeLocal(state=node.state,
                                    timers=nodes[addr].timers | {event.timer})
        before = GlobalState(
            nodes=nodes,
            inflight=((event.message,) if isinstance(event, MessageEvent)
                      else ()),
            errors=((ErrorNotification(dst=addr, peer=event.peer),)
                    if isinstance(event, ConnectionErrorEvent) else ()))
        # The model step runs first, on clones: the live step then mutates
        # the live state these NodeLocals wrap.
        after = TransitionSystem(node.protocol).apply(before, event)
        local = after.nodes[addr]
        model = {"state": local.state.signature(), "timers": local.timers,
                 "sent": [_sent(m) for m in after.inflight],
                 "closed": [error.dst for error in after.errors]}

        self._active = sent, closed = [], []
        try:
            live_step()
        finally:
            self._active = None
        if not executed():
            return
        live = {"state": node.state.signature(),
                "timers": node.timer_names(),
                "sent": [_sent(m) for m in sent if m.dst in nodes],
                "closed": [peer for peer in closed if peer in nodes]}
        compared = COMPARED if kind == "event" else COMPARED[:3]
        fields = tuple(name for name in compared if live[name] != model[name])
        site = _site(kind, event)
        self.result.steps[site] += 1
        if fields:
            self.result.divergent[site, fields] += 1
            detail = {name: (live[name], model[name]) for name in fields}
            if "state" in fields:
                detail["state"] = {
                    name: (was, now) for (name, was), (_, now)
                    in zip(live["state"][1:], model["state"][1:])
                    if was != now}
            self.result.first.setdefault((site, fields),
                                         (sim.now, addr, detail))


@functools.lru_cache(maxsize=None)
def _conformance(case: Case) -> Conformance:
    recorder = _Recorder()
    with pytest.MonkeyPatch.context() as patch:
        recorder.install(patch)
        case.run()
    return recorder.result


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_every_live_step_is_the_model_step(case):
    result = _conformance(case)
    assert sum(result.steps.values()) > 0
    assert result.refusals(case.system) == case.refused, result.describe()


def test_a_listed_site_that_conforms_is_refused():
    case = next(case for case in CASES if case.system == "bulletprime")
    result = _conformance(case)
    conforming = Conformance(
        result.steps,
        Counter({key: count for key, count in result.divergent.items()
                 if key[0] != ("msg", "Block")}),
        result.first)
    assert conforming.refusals("bulletprime") == {
        ("listed but conforms", ("msg", "Block"))}


def test_every_kind_of_step_is_checked():
    kinds = Counter(site[0] for case in CASES
                    for site in _conformance(case).steps.elements())
    assert set(kinds) == {"msg", "timer", "app", "connerr", "reset",
                          "revive"}, kinds
