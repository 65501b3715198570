"""Tests for checkpoints, checkpoint storage, neighbourhood snapshots and
the controller round that gathers them."""

from repro.core import (
    Checkpoint,
    CheckpointStore,
    CrystalBallConfig,
    Mode,
    NeighborhoodSnapshot,
    PeerTransferCache,
    attach_crystalball,
)
from repro.core.controller import (
    CHECKPOINT_NEGATIVE,
    CHECKPOINT_RESPONSE,
    Round,
)
from repro.runtime import Address, NetworkModel, Simulator
from repro.runtime.messages import Message
from repro.systems.randtree import ALL_PROPERTIES, RandTree, RandTreeConfig


def _checkpoint(addr, cn, **state_kwargs):
    protocol = RandTree(RandTreeConfig())
    state = protocol.initial_state(addr)
    for key, value in state_kwargs.items():
        setattr(state, key, value)
    return Checkpoint(node=addr, checkpoint_number=cn, state=state,
                      timers=frozenset({"recovery"}))


def test_checkpoint_sizes_positive():
    cp = _checkpoint(Address(1), 1)
    assert cp.size_bytes() > 0
    assert cp.compressed_bytes() > 0


def test_store_quota_prunes_oldest():
    store = CheckpointStore(quota=3)
    for cn in range(1, 6):
        store.record(_checkpoint(Address(1), cn))
    assert len(store) == 3
    assert store.latest().checkpoint_number == 5
    assert store.checkpoints[0].checkpoint_number == 3


def test_store_respond_returns_earliest_satisfying_checkpoint():
    store = CheckpointStore(quota=10)
    for cn in (2, 4, 6):
        store.record(_checkpoint(Address(1), cn))
    assert store.respond(3).checkpoint_number == 4
    assert store.respond(6).checkpoint_number == 6
    assert store.respond(7) is None  # pruned / not yet taken


def test_peer_transfer_cache_discounts_unchanged_checkpoints():
    cache = PeerTransferCache()
    peer = Address(2)
    cp = _checkpoint(Address(1), 1, joined=True)
    first = cache.transfer_cost(peer, cp)
    second = cache.transfer_cost(peer, _checkpoint(Address(1), 2, joined=True))
    assert first == cp.compressed_bytes()
    assert second < first


def _controller_at(origin, peers):
    """An ``off``-mode controller at ``origin``, its simulator and node."""
    sim = Simulator(lambda: RandTree(RandTreeConfig(bootstrap=(origin,))),
                    NetworkModel(), seed=1)
    for addr in (origin, *peers):
        sim.add_node(addr)
    controllers = attach_crystalball(sim, ALL_PROPERTIES,
                                     config=CrystalBallConfig(mode=Mode.OFF))
    return controllers[origin], sim, sim.nodes[origin]


def _answer(controller, sim, node, src, mtype, **payload):
    controller.handle_control_message(sim, node, Message(
        mtype=mtype, src=src, dst=node.addr, payload=payload, control=True))


def _answer_with(controller, sim, node, checkpoint):
    _answer(controller, sim, node, checkpoint.node, CHECKPOINT_RESPONSE,
            cn=checkpoint.checkpoint_number, state=checkpoint.state,
            timers=checkpoint.timers)


def test_snapshot_gather_completion_and_negatives():
    origin, peer, other = Address(1), Address(2), Address(3)
    controller, sim, node = _controller_at(origin, (peer, other))
    # An answer outside a round is dropped, not remembered.
    _answer_with(controller, sim, node, _checkpoint(peer, 4))
    assert controller.peer_checkpoints == {}

    controller._round = gather = Round(checkpoint_number=5,
                                       expected=frozenset({peer, other}))
    assert gather.missing == {peer, other}
    _answer_with(controller, sim, node, _checkpoint(peer, 5))
    _answer(controller, sim, node, other, CHECKPOINT_NEGATIVE, cn=2)
    assert set(gather.received) == {peer}
    assert gather.received[peer] is controller.peer_checkpoints[peer]
    assert gather.negative == {other: 2}
    assert gather.missing == frozenset()


def test_snapshot_from_gather_includes_local_and_tracks_missing():
    origin, peer, other, far = Address(1), Address(2), Address(3), Address(4)
    controller, sim, node = _controller_at(origin, (peer, other))
    # An earlier round heard from ``other``; this one does not.
    controller._round = Round(checkpoint_number=1,
                              expected=frozenset({other}))
    stale = _checkpoint(other, 1)
    _answer_with(controller, sim, node, stale)
    controller.on_tick(sim, node)
    controller._round = Round(checkpoint_number=3,
                              expected=frozenset({peer, other, far}))
    _answer_with(controller, sim, node, _checkpoint(peer, 3))
    controller.on_tick(sim, node)

    closed = controller.last_round
    snapshot = closed.snapshot
    assert closed.missing == {other, far}
    assert set(snapshot.checkpoints) == {origin, peer, other}, \
        "the local checkpoint always, and the stale fill for other"
    assert snapshot.checkpoints[origin].checkpoint_number == node.clock.value
    assert snapshot.checkpoints[other].state is stale.state
    assert snapshot.missing == {far}
    assert closed.start.nodes.keys() == snapshot.checkpoints.keys()
    # Counted before the stale fill: the second round is incomplete although
    # the fill leaves only ``far`` missing.
    assert controller.stats.snapshots_collected == 2
    assert controller.stats.incomplete_snapshots == 1
    assert controller.stats.model_checker_runs == 0


def test_snapshot_to_global_state_clones_states():
    origin = Address(1)
    local = _checkpoint(origin, 1, joined=True)
    snapshot = NeighborhoodSnapshot(origin=origin, checkpoint_number=1,
                                    checkpoints={origin: local})
    gs = snapshot.to_global_state()
    gs.nodes[origin].state.joined = False
    assert local.state.joined is True
    assert gs.nodes[origin].timers == frozenset({"recovery"})


def test_snapshot_inconsistent_when_checkpoint_older_than_requested():
    origin = Address(1)
    snapshot = NeighborhoodSnapshot(
        origin=origin, checkpoint_number=5,
        checkpoints={origin: _checkpoint(origin, 4)})
    assert not snapshot.is_consistent()
