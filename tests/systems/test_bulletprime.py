"""Unit tests for Bullet': diff/request logic and the shadow-file-map bug."""

from repro.mc import GlobalState
from repro.runtime import Address, HandlerContext, Message
from repro.systems.bulletprime import (
    BLOCK,
    BulletConfig,
    BulletPrime,
    DIFF,
    FILE_MAP_CONSISTENCY,
    REQUEST_BLOCK,
    build_mesh,
)
from repro.systems.bulletprime.protocol import DIFF_TIMER, DRAIN_TIMER, REQUEST_TIMER

SRC, RCV = Address(1), Address(2)


def _protocol(**kwargs):
    defaults = dict(source=SRC, mesh={SRC: (RCV,), RCV: (SRC,)}, block_count=4,
                    send_queue_capacity=200)
    defaults.update(kwargs)
    return BulletPrime(BulletConfig(**defaults))


def _ctx(addr):
    return HandlerContext(self_addr=addr)


def test_source_starts_with_all_blocks_pending_announcement():
    protocol = _protocol()
    state = protocol.initial_state(SRC)
    assert state.is_source and len(state.have) == 4
    assert state.shadow[RCV] == {0, 1, 2, 3}
    assert state.told(RCV) == set()


def test_diff_timer_announces_blocks_and_clears_shadow():
    protocol = _protocol()
    state = protocol.initial_state(SRC)
    ctx = _ctx(SRC)
    protocol.handle_timer(ctx, state, DIFF_TIMER)
    diffs = [m for m in ctx.sent if m.mtype == DIFF]
    assert diffs and set(diffs[0].get("blocks")) == {0, 1, 2, 3}
    assert state.shadow[RCV] == set()
    assert state.told(RCV) == {0, 1, 2, 3}


def test_refused_diff_clears_shadow_with_bug_and_keeps_it_with_fix():
    for fix, expected_shadow in [(False, set()), (True, {0, 1, 2, 3})]:
        protocol = _protocol(fix_shadow_map=fix, send_queue_capacity=40)
        state = protocol.initial_state(SRC)
        state.queue_bytes[RCV] = 39  # transport nearly full: diff refused
        ctx = _ctx(SRC)
        protocol.handle_timer(ctx, state, DIFF_TIMER)
        assert not [m for m in ctx.sent if m.mtype == DIFF]
        assert state.shadow[RCV] == expected_shadow


def test_file_map_property_flags_lost_announcements():
    protocol = _protocol(fix_shadow_map=False, send_queue_capacity=40)
    sender = protocol.initial_state(SRC)
    sender.queue_bytes[RCV] = 39
    protocol.handle_timer(_ctx(SRC), sender, DIFF_TIMER)
    receiver = protocol.initial_state(RCV)
    gs = GlobalState.from_snapshot({SRC: sender, RCV: receiver})
    assert not FILE_MAP_CONSISTENCY.holds(gs)


def test_file_map_property_tolerates_in_flight_diffs():
    protocol = _protocol()
    sender = protocol.initial_state(SRC)
    protocol.handle_timer(_ctx(SRC), sender, DIFF_TIMER)
    receiver = protocol.initial_state(RCV)
    diff = Message(mtype=DIFF, src=SRC, dst=RCV, payload={"blocks": (0, 1, 2, 3)})
    gs = GlobalState.from_snapshot({SRC: sender, RCV: receiver}, inflight=[diff])
    assert FILE_MAP_CONSISTENCY.holds(gs)


def test_receiver_requests_and_receives_blocks():
    protocol = _protocol()
    receiver = protocol.initial_state(RCV)
    protocol.handle_message(_ctx(RCV), receiver, Message(
        mtype=DIFF, src=SRC, dst=RCV, payload={"blocks": (0, 1)}))
    assert receiver.view[SRC] == {0, 1}
    ctx = _ctx(RCV)
    protocol.handle_timer(ctx, receiver, REQUEST_TIMER)
    requests = [m for m in ctx.sent if m.mtype == REQUEST_BLOCK]
    assert requests and requests[0].dst == SRC
    block = requests[0].get("block")
    protocol.handle_message(_ctx(RCV), receiver, Message(
        mtype=BLOCK, src=SRC, dst=RCV, payload={"block": block}))
    assert block in receiver.have


def test_sender_serves_requested_blocks_and_charges_queue():
    protocol = _protocol()
    sender = protocol.initial_state(SRC)
    ctx = _ctx(SRC)
    protocol.handle_message(ctx, sender, Message(
        mtype=REQUEST_BLOCK, src=RCV, dst=SRC, payload={"block": 2}))
    assert any(m.mtype == BLOCK and m.get("block") == 2 for m in ctx.sent)
    assert sender.queue_bytes[RCV] > 0


def test_drain_timer_reduces_queue():
    protocol = _protocol()
    sender = protocol.initial_state(SRC)
    sender.queue_bytes[RCV] = 100000
    protocol.handle_timer(_ctx(SRC), sender, DRAIN_TIMER)
    assert sender.queue_bytes[RCV] < 100000


def test_completion_recorded_with_upcall():
    protocol = _protocol(block_count=1)
    receiver = protocol.initial_state(RCV)
    ctx = HandlerContext(self_addr=RCV, now=42.0)
    protocol.handle_message(ctx, receiver, Message(
        mtype=BLOCK, src=SRC, dst=RCV, payload={"block": 0}))
    assert receiver.complete and receiver.completed_at == 42.0


def test_build_mesh_is_symmetric_and_connected_degree():
    from repro.runtime import make_addresses
    addrs = make_addresses(10)
    mesh = build_mesh(addrs, degree=3, seed=1)
    assert set(mesh) == set(addrs)
    for node, peers in mesh.items():
        assert node not in peers
        for peer in peers:
            assert node in mesh[peer]
    assert all(len(peers) >= 1 for peers in mesh.values())
