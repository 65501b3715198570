"""TCP failure-contract tests: the semantics both backends must share.

The tcp backend (:mod:`repro.backends.tcp`) routes frames over real
sockets but enforces connection state through the same
:class:`ConnectionTable` machinery used in sim — these tests pin down the
edges of that shared contract: stale-incarnation error upcalls and
connection-table bookkeeping around resets.
"""

from dataclasses import dataclass, field

from repro.runtime import (
    Address,
    ConnectionTable,
    NetworkModel,
    NodeState,
    Protocol,
    Simulator,
    Transport,
    make_addresses,
)


@dataclass
class PingState(NodeState):
    addr: Address = None
    received: list = field(default_factory=list)


class PingProtocol(Protocol):
    """Minimal protocol: 'ping' app call sends Ping over TCP (or UDP)."""

    name = "Ping"

    def initial_state(self, addr):
        return PingState(addr=addr)

    def handle_message(self, ctx, state, message):
        if message.mtype == "Ping":
            state.received.append(("ping", message.src))

    def handle_app(self, ctx, state, call, payload):
        if call == "ping":
            ctx.send(payload["target"], "Ping", {},
                     transport=payload.get("transport", Transport.TCP))

    def handle_connection_error(self, ctx, state, peer):
        state.received.append(("error", peer))


def _make_sim(n=2, **kwargs):
    sim = Simulator(PingProtocol, NetworkModel(jitter=0.0), seed=1, **kwargs)
    addrs = make_addresses(n)
    for a in addrs:
        sim.add_node(a)
    return sim, addrs


# -- ConnectionTable edges ----------------------------------------------------


def test_close_all_on_empty_table_is_a_noop():
    table = ConnectionTable()
    assert table.close_all() == []
    assert table.peers == {}


def test_close_all_then_reestablish_records_new_incarnation():
    table = ConnectionTable()
    peer = Address(7)
    table.establish(peer, peer_incarnation=0)
    assert table.close_all() == [peer]
    # A fresh establishment after the teardown must not resurrect the old
    # incarnation number.
    table.establish(peer, peer_incarnation=3)
    assert table.recorded_incarnation(peer) == 3


def test_close_all_is_idempotent():
    table = ConnectionTable()
    table.establish(Address(1), 0)
    assert table.close_all() == [Address(1)]
    assert table.close_all() == []


# -- stale-incarnation error upcalls ------------------------------------------


def test_first_tcp_send_establishes_both_directions():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=2.0)
    assert sim.nodes[a].connections.recorded_incarnation(b) == 0
    assert sim.nodes[b].connections.recorded_incarnation(a) == 0


def test_udp_sends_bypass_the_connection_table():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b,
                                      "transport": Transport.UDP})
    sim.run(until=2.0)
    assert b not in sim.nodes[a].connections.peers
    assert a not in sim.nodes[b].connections.peers


def test_silent_reset_leaves_stale_entry_then_send_upcalls_error():
    sim, (a, b) = _make_sim()
    sim.network.rst_loss_probability = 1.0  # every RST is lost
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=2.0)
    sim.schedule_reset(2.5, b)
    sim.run(until=3.0)
    # The reset was silent: a still holds the stale incarnation-0 entry
    # while b now has incarnation 1 and an empty table.
    assert sim.nodes[a].connections.recorded_incarnation(b) == 0
    assert sim.nodes[b].incarnation == 1
    assert sim.nodes[b].connections.peers == {}
    sim.schedule_app(3.5, a, "ping", {"target": b})
    sim.run(until=5.0)
    # The stale send is dropped, the entry closed, and the error upcalled.
    assert ("error", b) in sim.nodes[a].state.received
    assert ("ping", a) not in sim.nodes[b].state.received


def test_send_after_stale_error_reestablishes_and_delivers():
    sim, (a, b) = _make_sim()
    sim.network.rst_loss_probability = 1.0
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=2.0)
    sim.schedule_reset(2.5, b)
    sim.schedule_app(3.5, a, "ping", {"target": b})  # hits the stale entry
    sim.schedule_app(4.5, a, "ping", {"target": b})  # reconnects
    sim.run(until=6.0)
    assert sim.nodes[a].connections.recorded_incarnation(b) == 1
    assert ("ping", a) in sim.nodes[b].state.received


def test_loud_reset_closes_peer_entry_and_upcalls_immediately():
    sim, (a, b) = _make_sim()
    sim.network.rst_loss_probability = 0.0  # every RST arrives
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=2.0)
    sim.schedule_reset(2.5, b)
    sim.run(until=4.0)
    # The RST tore down a's entry and raised the error without a needing
    # to touch the connection again.
    assert b not in sim.nodes[a].connections.peers
    assert ("error", b) in sim.nodes[a].state.received


def test_send_to_dead_peer_drops_entry_and_upcalls():
    sim, (a, b) = _make_sim()
    sim.schedule_app(1.0, a, "ping", {"target": b})
    sim.run(until=2.0)
    sim.crash_node(b)
    sim.schedule_app(2.5, a, "ping", {"target": b})
    sim.run(until=4.0)
    assert b not in sim.nodes[a].connections.peers
    assert ("error", b) in sim.nodes[a].state.received
