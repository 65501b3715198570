"""Tests for the O(active) scheduler surface: schedule_at, hook wakeups
and the inflight-message index."""

from dataclasses import dataclass, field

from repro.runtime import (
    Address,
    Message,
    NetworkModel,
    NodeState,
    Protocol,
    Simulator,
    Transport,
    make_addresses,
)


@dataclass
class EchoState(NodeState):
    addr: Address = None
    received: list = field(default_factory=list)
    pings_sent: int = 0


class EchoProtocol(Protocol):
    name = "Echo"

    def initial_state(self, addr):
        return EchoState(addr=addr)

    def handle_message(self, ctx, state, message):
        if message.mtype == "Ping":
            state.received.append(("ping", message.src))
            ctx.send(message.src, "Pong", {})
        elif message.mtype == "Pong":
            state.received.append(("pong", message.src))

    def handle_app(self, ctx, state, call, payload):
        if call == "ping":
            state.pings_sent += 1
            ctx.send(payload["target"], "Ping", {},
                     transport=payload.get("transport", Transport.TCP))


def _make_sim(n=2, **kwargs):
    sim = Simulator(EchoProtocol, NetworkModel(jitter=0.0), seed=1, **kwargs)
    addrs = make_addresses(n)
    for a in addrs:
        sim.add_node(a)
    return sim, addrs


# ------------------------------------------------------------- schedule_at


def test_schedule_at_fires_at_time():
    sim, _ = _make_sim()
    fired = []
    sim.schedule_at(3.0, lambda s: fired.append(s.now))
    sim.run(until=10.0)
    assert fired == [3.0]


def test_schedule_at_self_rearming_callback():
    sim, _ = _make_sim()
    times = []

    def wakeup(s):
        times.append(s.now)
        if len(times) < 3:
            s.schedule_at(s.now + 2.0, wakeup)

    sim.schedule_at(1.0, wakeup)
    sim.run(until=10.0)
    assert times == [1.0, 3.0, 5.0]


def test_inject_app_executes_inline():
    sim, (a, b) = _make_sim()
    sim.inject_app(a, "ping", {"target": b})
    assert sim.nodes[a].state.pings_sent == 1  # no heap entry, ran inline
    sim.run(until=5.0)
    assert ("pong", b) in sim.nodes[a].state.received


# ----------------------------------------------------------- hook wakeups


class OwnedWakeupHook:
    """Hook that owns its wakeups via on_attach + schedule_at."""

    def __init__(self, period):
        self.ticks = 0
        self.period = period

    def on_attach(self, sim, node):
        self.addr = node.addr
        sim.schedule_at(sim.now + self.period, self._wakeup)

    def _wakeup(self, sim):
        node = sim.nodes.get(self.addr)
        if node is None or node.hook is not self:
            return
        if node.alive:
            self.ticks += 1
        sim.schedule_at(sim.now + self.period, self._wakeup)

    def filter_event(self, sim, node, event):
        from repro.runtime import FilterAction

        return FilterAction.ALLOW

    def immediate_safety_check(self, sim, node, event):
        return True

    def handle_control_message(self, sim, node, message):
        pass

    def on_forced_checkpoint(self, sim, node):
        pass


def test_on_attach_hook_owns_its_wakeups():
    sim, (a, _b) = _make_sim()
    hook = OwnedWakeupHook(period=7.0)
    sim.attach_hook(a, hook)
    sim.run(until=30.0)
    assert hook.ticks == 4  # 7, 14, 21, 28


def test_detached_hook_stops_waking():
    sim, (a, _b) = _make_sim()
    hook = OwnedWakeupHook(period=5.0)
    sim.attach_hook(a, hook)
    sim.schedule_at(12.0, lambda s: setattr(s.nodes[a], "hook", None))
    sim.run(until=40.0)
    assert hook.ticks == 2  # 5, 10 — wakeup chain dies after detach


# ----------------------------------------------------------- inflight index


def test_inflight_index_tracks_service_messages():
    sim, (a, b) = _make_sim()
    assert len(sim.inflight_messages()) == 0
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(max_events=1)  # the app event sent Ping; it is now inflight
    assert len(sim.inflight_messages()) == 1
    assert [m.mtype for m in sim.inflight_messages()] == ["Ping"]
    sim.run(until=10.0)
    assert len(sim.inflight_messages()) == 0


def test_inflight_index_excludes_control_messages():
    sim, (a, b) = _make_sim()
    control = Message(mtype="_cb_probe", src=a, dst=b, payload={},
                      control=True, transport=Transport.UDP)
    sim.transmit(a, control)
    assert len(sim.inflight_messages()) == 0
