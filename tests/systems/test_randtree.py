"""Unit tests for the RandTree protocol handlers and properties."""

from repro.mc import GlobalState, check_all
from repro.runtime import Address, HandlerContext, Message
from repro.systems.randtree import (
    ALL_PROPERTIES,
    CHILDREN_SIBLINGS_DISJOINT,
    JOIN,
    JOIN_REPLY,
    NEW_ROOT,
    RECOVERY_TIMER,
    ROOT_HAS_NO_SIBLINGS,
    RandTree,
    RandTreeConfig,
    UPDATE_SIBLING,
)


def _ctx(addr):
    return HandlerContext(self_addr=addr)


def _protocol(**kwargs):
    defaults = dict(bootstrap=(Address(1),), max_children=2)
    defaults.update(kwargs)
    return RandTree(RandTreeConfig(**defaults))


def test_bootstrap_node_joins_itself_as_root_without_timer():
    protocol = _protocol()
    addr = Address(1)
    state = protocol.initial_state(addr)
    ctx = _ctx(addr)
    protocol.handle_app(ctx, state, "join", {})
    assert state.is_root()
    # The bug: no recovery timer was armed.
    assert not any(op.name == RECOVERY_TIMER for op in ctx.timer_ops)


def test_fixed_bootstrap_join_arms_recovery_timer():
    protocol = _protocol(fix_recovery_timer=True)
    addr = Address(1)
    state = protocol.initial_state(addr)
    ctx = _ctx(addr)
    protocol.handle_app(ctx, state, "join", {})
    assert any(op.name == RECOVERY_TIMER for op in ctx.timer_ops)


def test_non_bootstrap_node_sends_join():
    protocol = _protocol()
    addr = Address(5)
    state = protocol.initial_state(addr)
    ctx = _ctx(addr)
    protocol.handle_app(ctx, state, "join", {})
    assert any(m.mtype == JOIN and m.dst == Address(1) for m in ctx.sent)


def test_root_accepts_join_and_notifies_siblings():
    protocol = _protocol()
    root = Address(1)
    state = protocol.initial_state(root)
    state.joined = True
    state.root = root
    state.children = {Address(9)}
    ctx = _ctx(root)
    join = Message(mtype=JOIN, src=Address(13), dst=root,
                   payload={"origin": Address(13)})
    protocol.handle_message(ctx, state, join)
    assert Address(13) in state.children
    assert any(m.mtype == JOIN_REPLY and m.dst == Address(13) for m in ctx.sent)
    assert any(m.mtype == UPDATE_SIBLING and m.dst == Address(9) for m in ctx.sent)


def test_root_at_capacity_delegates_join():
    protocol = _protocol(max_children=1)
    root = Address(1)
    state = protocol.initial_state(root)
    state.joined = True
    state.root = root
    state.children = {Address(9)}
    ctx = _ctx(root)
    protocol.handle_message(ctx, state, Message(
        mtype=JOIN, src=Address(13), dst=root, payload={"origin": Address(13)}))
    assert Address(13) not in state.children
    assert any(m.mtype == JOIN and m.dst == Address(9) for m in ctx.sent)


def test_join_forwarding_bounded_by_hop_count():
    protocol = _protocol()
    node = Address(7)
    state = protocol.initial_state(node)
    state.joined = True
    state.root = Address(3)
    ctx = _ctx(node)
    protocol.handle_message(ctx, state, Message(
        mtype=JOIN, src=Address(13), dst=node,
        payload={"origin": Address(13), "hops": 20}))
    assert not ctx.sent


def test_update_sibling_bug_keeps_child_entry():
    protocol = _protocol()
    node = Address(9)
    state = protocol.initial_state(node)
    state.joined = True
    state.root = Address(1)
    state.parent = Address(1)
    state.children = {Address(13)}
    ctx = _ctx(node)
    protocol.handle_message(ctx, state, Message(
        mtype=UPDATE_SIBLING, src=Address(1), dst=node,
        payload={"sibling": Address(13)}))
    assert Address(13) in state.children and Address(13) in state.siblings
    gs = GlobalState.from_snapshot({node: state})
    assert not CHILDREN_SIBLINGS_DISJOINT.holds(gs)


def test_update_sibling_fix_removes_child_entry():
    protocol = _protocol(fix_update_sibling=True)
    node = Address(9)
    state = protocol.initial_state(node)
    state.children = {Address(13)}
    protocol.handle_message(_ctx(node), state, Message(
        mtype=UPDATE_SIBLING, src=Address(1), dst=node,
        payload={"sibling": Address(13)}))
    assert Address(13) not in state.children
    assert Address(13) in state.siblings


def test_new_root_bug_keeps_stale_child_entry():
    protocol = _protocol()
    node = Address(69)
    state = protocol.initial_state(node)
    state.joined = True
    state.root = Address(61)
    state.parent = Address(61)
    state.children = {Address(9)}
    protocol.handle_message(_ctx(node), state, Message(
        mtype=NEW_ROOT, src=Address(61), dst=node, payload={"root": Address(9)}))
    assert state.root == Address(9)
    assert Address(9) in state.children  # the bug

    fixed = RandTree(RandTreeConfig(fix_new_root_check=True))
    state2 = fixed.initial_state(node)
    state2.children = {Address(9)}
    fixed.handle_message(_ctx(node), state2, Message(
        mtype=NEW_ROOT, src=Address(61), dst=node, payload={"root": Address(9)}))
    assert Address(9) not in state2.children


def test_connection_error_promotion_keeps_stale_siblings():
    protocol = _protocol()
    node = Address(5)
    state = protocol.initial_state(node)
    state.joined = True
    state.root = Address(1)
    state.parent = Address(1)
    state.siblings = {Address(7)}
    protocol.handle_connection_error(_ctx(node), state, Address(1))
    assert state.is_root()
    assert state.siblings == {Address(7)}  # the bug
    gs = GlobalState.from_snapshot({node: state})
    assert not ROOT_HAS_NO_SIBLINGS.holds(gs)

    fixed = RandTree(RandTreeConfig(fix_clear_siblings=True))
    state2 = fixed.initial_state(node)
    state2.joined = True
    state2.root = Address(1)
    state2.parent = Address(1)
    state2.siblings = {Address(7)}
    fixed.handle_connection_error(_ctx(node), state2, Address(1))
    assert state2.siblings == set()


def test_join_reply_sets_topology_and_arms_recovery_timer():
    protocol = _protocol()
    node = Address(13)
    state = protocol.initial_state(node)
    ctx = _ctx(node)
    protocol.handle_message(ctx, state, Message(
        mtype=JOIN_REPLY, src=Address(1), dst=node,
        payload={"root": Address(1), "siblings": [Address(9)]}))
    assert state.joined and state.parent == Address(1) and state.root == Address(1)
    assert state.siblings == {Address(9)}
    assert any(op.name == RECOVERY_TIMER for op in ctx.timer_ops)


def test_neighbors_cover_tree_pointers():
    protocol = _protocol()
    state = protocol.initial_state(Address(9))
    state.root = Address(1)
    state.parent = Address(1)
    state.children = {Address(13)}
    state.siblings = {Address(5)}
    assert set(protocol.neighbors(state)) == {Address(1), Address(5), Address(13)}


def test_properties_hold_on_clean_tree():
    protocol = _protocol()
    root = protocol.initial_state(Address(1))
    root.joined = True
    root.root = Address(1)
    root.children = {Address(9)}
    root.refresh_peers()
    child = protocol.initial_state(Address(9))
    child.joined = True
    child.root = Address(1)
    child.parent = Address(1)
    child.refresh_peers()
    gs = GlobalState.from_snapshot({Address(1): root, Address(9): child},
                                   timers={Address(1): [RECOVERY_TIMER],
                                           Address(9): [RECOVERY_TIMER]})
    assert not check_all(ALL_PROPERTIES, gs)
