"""Tests for the discrete-event simulator."""

from repro.obs import MemoryTracer, ObsContext, filter_records
from repro.runtime import (
    Address,
    Message,
    MessageEvent,
    NetworkModel,
    NodeState,
    Protocol,
    Simulator,
    TimerEvent,
    Transport,
    make_addresses,
)
from dataclasses import dataclass, field


@dataclass
class EchoState(NodeState):
    addr: Address = None
    received: list = field(default_factory=list)
    pings_sent: int = 0


class EchoProtocol(Protocol):
    """Minimal protocol: 'ping' app call sends Ping, peers reply Pong."""

    name = "Echo"

    def initial_state(self, addr):
        return EchoState(addr=addr)

    def on_start(self, ctx, state):
        ctx.set_timer("heartbeat", 5.0)

    def handle_message(self, ctx, state, message):
        if message.mtype == "Ping":
            state.received.append(("ping", message.src))
            ctx.send(message.src, "Pong", {})
        elif message.mtype == "Pong":
            state.received.append(("pong", message.src))

    def handle_timer(self, ctx, state, timer):
        state.received.append(("timer", timer))

    def handle_app(self, ctx, state, call, payload):
        if call == "ping":
            state.pings_sent += 1
            ctx.send(payload["target"], "Ping", {}, transport=payload.get(
                "transport", Transport.TCP))

    def handle_connection_error(self, ctx, state, peer):
        state.received.append(("error", peer))


def _make_sim(n=2, **kwargs):
    sim = Simulator(EchoProtocol, NetworkModel(jitter=0.0), seed=1, **kwargs)
    addrs = make_addresses(n)
    for a in addrs:
        sim.add_node(a)
    return sim, addrs


def test_add_node_runs_on_start_timers():
    sim, addrs = _make_sim()
    assert "heartbeat" in sim.nodes[addrs[0]].armed_timers


def test_ping_pong_round_trip():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=5.0)
    assert ("ping", a) in sim.nodes[b].state.received
    assert ("pong", b) in sim.nodes[a].state.received


def test_timer_fires_once_and_time_advances():
    sim, (a, b) = _make_sim()
    sim.run(until=6.0)
    assert ("timer", "heartbeat") in sim.nodes[a].state.received
    assert sim.now <= 6.0
    assert "heartbeat" not in sim.nodes[a].armed_timers


def test_reset_wipes_state_and_increments_incarnation():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.schedule_reset(2.0, b)
    sim.run(until=3.0)
    assert sim.nodes[b].incarnation == 1
    assert sim.nodes[b].state.received == []


def test_send_to_dead_node_yields_connection_error():
    sim, (a, b) = _make_sim()
    sim.crash_node(b)
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=3.0)
    assert ("error", b) in sim.nodes[a].state.received


def test_partition_blocks_tcp_and_signals_error():
    sim, (a, b) = _make_sim()
    sim.network.partition(a, b)
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=3.0)
    assert sim.nodes[b].state.received == []
    assert ("error", b) in sim.nodes[a].state.received


def test_stale_connection_after_reset_errors_on_next_send():
    sim, (a, b) = _make_sim()
    sim.network.rst_loss_probability = 1.0  # silent reset
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=2.0)
    sim.schedule_reset(2.5, b)
    sim.run(until=3.0)
    sim.schedule_app(3.5, a, "ping", {"target": b})
    sim.run(until=5.0)
    assert ("error", b) in sim.nodes[a].state.received


def test_node_states_and_inflight_views():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(max_events=1)
    states = sim.node_states()
    assert set(states) == {a, b}
    assert all(isinstance(t, frozenset) for _, t in states.values())


def test_observer_called_for_each_event():
    sim, (a, b) = _make_sim()
    seen = []
    sim.add_observer(lambda s, node, event: seen.append(type(event).__name__))
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=3.0)
    assert "AppEvent" in seen and "MessageEvent" in seen


class _RefusingHook:
    """A hook that refuses every event ``refuse(event)`` accepts."""

    def __init__(self, refuse):
        self.refuse = refuse
        self.refused = 0

    def on_attach(self, sim, node): pass

    def filter_event(self, sim, node, event):
        if self.refuse(event):
            self.refused += 1
            return True
        return False

    def immediate_safety_check(self, sim, node, event): return True
    def handle_control_message(self, sim, node, message): pass
    def on_forced_checkpoint(self, sim, node): pass


def test_event_filter_hook_drops_messages():
    sim, (a, b) = _make_sim()
    hook = _RefusingHook(lambda event: isinstance(event, MessageEvent)
                         and event.message.mtype == "Ping")
    sim.nodes[b].hook = hook
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=3.0)
    assert hook.refused == 1
    assert sim.nodes[b].state.received == []
    assert sim.nodes[b].stats.events_dropped_by_filter == 1
    # The refused message's connection is reset: its sender sees an error.
    assert ("error", b) in sim.nodes[a].state.received


def test_a_refused_timer_fires_one_second_later():
    tracer = MemoryTracer()
    sim, (a, _b) = _make_sim(obs=ObsContext(tracer=tracer))
    hook = _RefusingHook(lambda event: isinstance(event, TimerEvent)
                         and hook.refused == 0)
    sim.nodes[a].hook = hook
    sim.run(until=5.5)
    assert sim.nodes[a].state.received == []  # the handler did not run
    assert "heartbeat" in sim.nodes[a].armed_timers
    sim.run(until=7.0)
    assert sim.nodes[a].state.received == [("timer", "heartbeat")]
    assert sim.nodes[a].stats.events_delayed == 1
    fired = [(record["t"], record["outcome"])
             for record in filter_records(tracer.records, kind="event",
                                          node=str(a))
             if record["etype"] == "timer"]
    assert fired == [(5.0, "delayed"), (6.0, "executed")]


def test_a_drained_run_ends_at_until():
    sim, _ = _make_sim()
    sim.run(until=100.0)  # the last event is the 5 s heartbeat
    assert sim.now == 100.0
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=100.0, max_events=1)
    assert sim.now == 1.0  # a max_events stop does not jump ahead


def test_trace_records_when_enabled():
    tracer = MemoryTracer()
    sim = Simulator(EchoProtocol, NetworkModel(), seed=1,
                    obs=ObsContext(tracer=tracer))
    a, b = make_addresses(2)
    sim.add_node(a)
    sim.add_node(b)
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=3.0)
    events = filter_records(tracer.records, kind="event")
    assert events
    assert any("Ping" in rec["desc"] for rec in events)


def test_bandwidth_accounting_separates_control_plane():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=3.0)
    assert sim.total_service_bytes() > 0
    assert sim.nodes[a].stats.control_bytes_sent == 0
    control = Message(mtype="_cb_x", src=a, dst=b, payload={}, control=True)
    sim.transmit(a, control)
    assert sim.nodes[a].stats.control_bytes_sent > 0
