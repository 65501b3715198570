"""Tests for checkpoints, checkpoint storage and neighbourhood snapshots."""

from repro.core import Checkpoint, CheckpointStore, NeighborhoodSnapshot, PeerTransferCache
from repro.core.snapshot import SnapshotGather
from repro.runtime import Address
from repro.systems.randtree import RandTree, RandTreeConfig


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


def test_snapshot_gather_completion_and_negatives():
    origin = Address(1)
    expected = frozenset({Address(2), Address(3)})
    gather = SnapshotGather(origin=origin, checkpoint_number=5, expected=expected)
    assert not gather.complete
    gather.record_response(_checkpoint(Address(2), 5))
    gather.record_negative(Address(3), current_cn=2)
    assert gather.complete
    assert gather.negative == {Address(3): 2}
    assert gather.missing == frozenset()


def test_snapshot_from_gather_includes_local_and_tracks_missing():
    origin = Address(1)
    gather = SnapshotGather(origin=origin, checkpoint_number=3,
                            expected=frozenset({Address(2), Address(3)}))
    gather.record_response(_checkpoint(Address(2), 3))
    snapshot = NeighborhoodSnapshot.from_gather(gather, _checkpoint(origin, 3))
    assert origin in snapshot.members
    assert Address(2) in snapshot.members
    assert Address(3) in snapshot.missing
    assert snapshot.is_consistent()


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
