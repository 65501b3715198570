"""Tests for the transition system (the ``;`` relation of Figure 4)."""

from repro.mc import GlobalState, TransitionConfig, TransitionSystem
from repro.runtime import Address, MessageEvent, ResetEvent, TimerEvent
from repro.systems.randtree import (
    JOIN,
    JOIN_TIMER,
    RandTree,
    RandTreeConfig,
)


def _setup(n=2, **config):
    addrs = [Address(i + 1) for i in range(n)]
    protocol = RandTree(RandTreeConfig(bootstrap=(addrs[0],)))
    states = {a: protocol.initial_state(a) for a in addrs}
    timers = {a: [JOIN_TIMER] for a in addrs}
    gs = GlobalState.from_snapshot(states, timers=timers)
    system = TransitionSystem(protocol, TransitionConfig(**config))
    return addrs, protocol, gs, system


def test_internal_events_include_timers_and_resets():
    addrs, _, gs, system = _setup()
    events = system.internal_events(gs, addrs[0])
    kinds = {type(e).__name__ for e in events}
    assert "TimerEvent" in kinds and "ResetEvent" in kinds


def test_reset_bound_respected():
    addrs, _, gs, system = _setup(max_resets_per_node=1)
    after = system.apply(gs, ResetEvent(node=addrs[0]))
    assert not any(isinstance(e, ResetEvent)
                   for e in system.internal_events(after, addrs[0]))


def test_disable_resets_removes_reset_actions():
    addrs, _, gs, system = _setup(enable_resets=False)
    assert not any(isinstance(e, ResetEvent)
                   for e in system.internal_events(gs, addrs[0]))


def test_timer_event_consumes_timer_and_produces_messages():
    addrs, _, gs, system = _setup()
    # Node 2's join timer fires: it sends a Join to the bootstrap node 1.
    after = system.apply(gs, TimerEvent(node=addrs[1], timer=JOIN_TIMER))
    assert JOIN_TIMER in after.nodes[addrs[1]].timers  # re-armed while not joined
    assert any(m.mtype == JOIN and m.dst == addrs[0] for m in after.inflight)
    # Original state untouched.
    assert not gs.inflight


def test_message_event_removes_message_from_network():
    addrs, _, gs, system = _setup()
    mid = system.apply(gs, TimerEvent(node=addrs[1], timer=JOIN_TIMER))
    join = next(m for m in mid.inflight if m.mtype == JOIN)
    after = system.apply(mid, MessageEvent(node=addrs[0], message=join))
    assert join not in after.inflight
    assert addrs[1] in after.nodes[addrs[0]].state.children


def test_messages_to_unknown_nodes_are_dropped():
    addrs, protocol, gs, system = _setup()
    # Remove the bootstrap node from the snapshot: the Join goes to the dummy.
    partial = GlobalState.from_snapshot(
        {addrs[1]: gs.nodes[addrs[1]].state.clone()},
        timers={addrs[1]: [JOIN_TIMER]})
    after = system.apply(partial, TimerEvent(node=addrs[1], timer=JOIN_TIMER))
    assert after.inflight == ()


def test_reset_produces_error_notifications_for_neighbors():
    addrs, protocol, gs, system = _setup()
    # Make node 2 a child of node 1 so they are neighbours.
    gs.nodes[addrs[0]].state.children.add(addrs[1])
    gs.nodes[addrs[0]].state.refresh_peers()
    gs.nodes[addrs[1]].state.parent = addrs[0]
    gs.nodes[addrs[1]].state.refresh_peers()
    after = system.apply(gs, ResetEvent(node=addrs[1]))
    assert any(e.dst == addrs[0] and e.peer == addrs[1] for e in after.errors)
    assert after.reset_count(addrs[1]) == 1
    # The reset node's own state is fresh.
    assert after.nodes[addrs[1]].state.joined is False


def test_apply_filtered_consumes_message_without_handler():
    addrs, _, gs, system = _setup()
    mid = system.apply(gs, TimerEvent(node=addrs[1], timer=JOIN_TIMER))
    join = next(m for m in mid.inflight if m.mtype == JOIN)
    event = MessageEvent(node=addrs[0], message=join)
    steered = system.apply_filtered(mid, event)
    assert join not in steered.inflight
    # Handler did not run: node 1 has no children.
    assert not steered.nodes[addrs[0]].state.children
    # The sender is notified via a connection error.
    assert any(e.dst == addrs[1] for e in steered.errors)


def test_enabled_events_cover_network_and_internal():
    addrs, _, gs, system = _setup()
    mid = system.apply(gs, TimerEvent(node=addrs[1], timer=JOIN_TIMER))
    events = system.enabled_events(mid)
    assert any(isinstance(e, MessageEvent) for e in events)
    assert any(isinstance(e, TimerEvent) for e in events)
