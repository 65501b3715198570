"""A successor's identity is its parent's plus what the step changed.

One generated differential check over all six bundled systems: every state
the model checker derives from another must hash exactly as the same state
hashed from scratch, and every clone must be the state ``copy.deepcopy``
would have produced, byte for byte.  CI runs this file under several
``PYTHONHASHSEED`` values: set iteration order, hence pickle bytes, hence
checkpoint byte counts depend on the string-hash order.
"""

import copy
import pickle
import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.api import Experiment, get_system
from repro.mc import GlobalState, NodeLocal, TransitionConfig, TransitionSystem
from repro.runtime import Address
from repro.runtime.events import MessageEvent
from repro.runtime.state import NodeState

SYSTEMS = ("randtree", "chord", "paxos", "bulletprime", "crdtset", "kvstore")

#: Short seeded live runs whose final snapshot is one more start state:
#: paxos has no search scenario (the run stops between its second submit
#: and the proposal, so one ``propose`` call is enabled); the crdtset and
#: kvstore search scenarios alone yield 13 and 3 transitions.
LIVE_SNAPSHOTS = {"paxos": (3, 10.0), "crdtset": (3, 20.0), "kvstore": (4, 20.0)}

WALK_TRANSITIONS = 300


def _start_states(name: str) -> list[tuple[TransitionSystem, GlobalState]]:
    spec = get_system(name)
    config = TransitionConfig(enable_resets=True, max_resets_per_node=1)
    starts = []
    for scenario in spec.scenarios.values():
        if scenario.kind != "search":
            continue
        built = scenario.build()
        protocol, snapshot = (built if isinstance(built, tuple)
                              else (built.protocol, built.global_state()))
        starts.append((TransitionSystem(protocol, config), snapshot))
    if name in LIVE_SNAPSHOTS:
        nodes, duration = LIVE_SNAPSHOTS[name]
        simulator = (Experiment(name).nodes(nodes).duration(duration).seed(1)
                     .churn(False).properties().run().simulator)
        live = simulator.node_states()
        snapshot = GlobalState.from_snapshot(
            {addr: state.clone() for addr, (state, _) in live.items()},
            timers={addr: timers for addr, (_, timers) in live.items()},
            inflight=simulator.inflight_messages())
        protocol = next(iter(simulator.nodes.values())).protocol
        starts.append((TransitionSystem(protocol, config), snapshot))
    return starts


def _walk(name: str) -> list[tuple[GlobalState, bool]]:
    """Breadth-first walk from every start state of ``name``, the way a
    search does it (hash, dedup, expand), message events also through both
    ``apply_filtered`` forms: every successor, and whether it was built to
    inherit its signature."""
    found = []
    starts = _start_states(name)
    for system, start in starts:
        seen = {start.state_hash()}
        frontier = [start]
        quota = len(found) + WALK_TRANSITIONS // len(starts) + 1
        for state in frontier:
            if len(found) >= quota:
                break
            for event in system.enabled_events(state):
                steps = [system.apply(state, event)]
                if isinstance(event, MessageEvent):
                    steps += [system.apply_filtered(state, event,
                                                    reset_connection=reset)
                              for reset in (True, False)]
                for after in steps:
                    found.append((after, after._origin is not None))
                    if after.state_hash() not in seen:
                        seen.add(after.state_hash())
                        frontier.append(after)
    return found


@pytest.fixture(scope="module", params=SYSTEMS)
def walked(request) -> list[tuple[GlobalState, bool]]:
    found = _walk(request.param)
    assert len(found) >= WALK_TRANSITIONS, (request.param, len(found))
    return found


def _cold(state: GlobalState) -> GlobalState:
    """The same state with nothing cached and nothing to inherit from."""
    return GlobalState(
        nodes={addr: NodeLocal(state=local.state, timers=local.timers)
               for addr, local in state.nodes.items()},
        inflight=state.inflight, errors=state.errors, resets=state.resets)


def _containers(value: Any):
    """Every dict, list and set reachable from ``value``, depth first."""
    if isinstance(value, dict):
        children = list(value.keys()) + list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        return
    for child in children:
        yield from _containers(child)
    if isinstance(value, (dict, list, set)):
        yield value


def _set_orders(state: NodeState) -> list[list]:
    return [list(found) for found in _containers(vars(state))
            if isinstance(found, set)]


def _scribble(state: NodeState) -> None:
    for found in list(_containers(vars(state))):
        if isinstance(found, dict):
            found["scribble"] = "scribble"
        elif isinstance(found, list):
            found.append("scribble")
        else:
            found.add("scribble")


def test_derived_signature_equals_the_cold_one(walked):
    for after, _ in walked:
        derived, cold = after.signature(), _cold(after).signature()
        assert derived == cold
        assert repr(derived) == repr(cold)
        assert after.state_hash() == _cold(after).state_hash()
        assert after._origin is None  # the parent is let go once used
    # Every parent of the walk was hashed before it was expanded, so every
    # successor must have taken the inheriting path.
    assert all(linked for _, linked in walked)


def test_clone_is_the_deepcopy_byte_for_byte(walked):
    for after, _ in walked:
        for local in after.nodes.values():
            state = local.state
            clone = state.clone()
            assert clone is not state and clone == state
            assert pickle.dumps(clone) == pickle.dumps(state)
            assert pickle.dumps(clone) == pickle.dumps(copy.deepcopy(state))
            assert _set_orders(clone) == _set_orders(state)


def test_mutating_a_clone_leaves_the_original_alone(walked):
    for after, _ in walked:
        for local in after.nodes.values():
            before = local.state.signature()
            clone = local.state.clone()
            _scribble(clone)
            assert local.state.signature() == before
            assert clone != local.state


def test_bundled_states_clone_without_deepcopy(walked, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("NodeState.clone fell back to copy.deepcopy")

    monkeypatch.setattr(copy, "deepcopy", refuse)
    for after, _ in walked:
        for local in after.nodes.values():
            local.state.clone()


def test_an_unhashed_parent_is_not_retained():
    # Replay and the immediate safety check apply events and never hash:
    # their successors must not keep a chain of parents alive.
    system, start = _start_states("randtree")[0]
    state = start.clone()
    for _ in range(3):
        state = system.apply(state, system.enabled_events(state)[0])
        assert state._origin is None
    assert state.signature() == _cold(state).signature()


# ------------------------------------------------------------ clone, unit cases

@dataclass
class _Bag(NodeState):
    items: set = field(default_factory=set)
    extra: Any = None


class _Opaque:
    """A field type the structural copier has never heard of."""

    def __init__(self, values):
        self.values = values


def test_set_clone_iterates_like_the_deepcopy():
    # ``set(s)`` copies the hash table; a table that saw deletions iterates
    # differently from one rebuilt by insertion, which is what
    # ``copy.deepcopy`` (and pickle) produce.
    rng = random.Random(7)
    differs_from_table_copy = 0
    for _ in range(200):
        items = set()
        for _ in range(rng.randrange(4, 40)):
            value = rng.randrange(64)
            if rng.random() < 0.6:
                items.add(value)
            else:
                items.discard(value)
        reference = list(copy.deepcopy(items))
        assert list(_Bag(items=items).clone().items) == reference
        frozen = frozenset(items)
        assert (list(_Bag(extra=frozen).clone().extra)
                == list(copy.deepcopy(frozen)))
        differs_from_table_copy += list(set(items)) != reference
    assert differs_from_table_copy  # the inputs do tell the two apart


def test_unknown_field_type_goes_through_the_fallback():
    state = _Bag(items={1, 2}, extra={"nested": [_Opaque([1, {2, 3}])]})
    clone = state.clone()
    original, copied = state.extra["nested"][0], clone.extra["nested"][0]
    assert copied is not original
    assert copied.values == original.values
    copied.values[1].add(4)
    assert original.values == [1, {2, 3}]


def test_tuples_are_shared_unless_something_inside_was_copied():
    shared = (1, "a", Address(3), (2.5, None))
    rebuilt = (1, [2, 3])
    clone = _Bag(extra=[shared, rebuilt]).clone()
    assert clone.extra[0] is shared
    assert clone.extra[1] == rebuilt and clone.extra[1] is not rebuilt
    assert clone.extra[1][1] is not rebuilt[1]
