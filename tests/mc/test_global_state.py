"""Tests for global states."""

from repro.mc import ErrorNotification, GlobalState, Step
from repro.runtime import Address, Message
from repro.systems.randtree import RandTree, RandTreeConfig


def _protocol():
    return RandTree(RandTreeConfig(bootstrap=(Address(1),)))


def _state(addr, **kwargs):
    state = _protocol().initial_state(addr)
    for key, value in kwargs.items():
        setattr(state, key, value)
    return state


def test_from_snapshot_builds_node_locals():
    a, b = Address(1), Address(2)
    gs = GlobalState.from_snapshot({a: _state(a), b: _state(b)},
                                   timers={a: ["recovery"]})
    assert set(gs.nodes) == {a, b}
    assert gs.nodes[a].timers == frozenset({"recovery"})
    assert gs.nodes[b].timers == frozenset()


def test_state_hash_stable_and_sensitive():
    a = Address(1)
    gs1 = GlobalState.from_snapshot({a: _state(a)})
    gs2 = GlobalState.from_snapshot({a: _state(a)})
    gs3 = GlobalState.from_snapshot({a: _state(a, joined=True)})
    assert gs1.state_hash() == gs2.state_hash()
    assert gs1.state_hash() != gs3.state_hash()


def test_hash_sensitive_to_inflight_and_errors():
    a, b = Address(1), Address(2)
    base = GlobalState.from_snapshot({a: _state(a), b: _state(b)})
    msg = Message(mtype="Join", src=a, dst=b, payload={})
    with_msg = GlobalState.from_snapshot({a: _state(a), b: _state(b)},
                                         inflight=[msg])
    assert base.state_hash() != with_msg.state_hash()
    from dataclasses import replace
    with_err = replace(base, errors=(ErrorNotification(dst=a, peer=b),))
    assert base.state_hash() != with_err.state_hash()


def test_clone_is_independent():
    a = Address(1)
    gs = GlobalState.from_snapshot({a: _state(a)})
    copy = gs.clone()
    copy.nodes[a].state.joined = True
    assert gs.nodes[a].state.joined is False


def test_reset_counts_accumulate():
    a = Address(1)
    gs = GlobalState.from_snapshot({a: _state(a)})
    assert gs.reset_count(a) == 0
    gs2 = gs.after(Step(reset=a)).after(Step(reset=a))
    assert gs2.reset_count(a) == 2
    assert gs.reset_count(a) == 0
    assert gs.state_hash() != gs2.state_hash()


def test_size_bytes_positive_and_cached():
    a = Address(1)
    gs = GlobalState.from_snapshot({a: _state(a)})
    size = gs.size_bytes()
    assert size > 0
    assert gs.size_bytes() == size


def test_describe_mentions_nodes():
    a = Address(1)
    gs = GlobalState.from_snapshot({a: _state(a)})
    assert "RandTreeState" in gs.describe()
