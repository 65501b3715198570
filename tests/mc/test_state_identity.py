"""A successor's identity is its parent's plus what the step changed.

One generated differential check over all six bundled systems: every state
the model checker derives from a hashed one must carry the hash of the
same state hashed from scratch, distinct states must hash apart, and every
clone must be the state ``copy.deepcopy`` would have produced, byte for
byte.  A search's transition memo hands one handler run to every successor
that repeats it, so every hit must be the run a fresh clone would make,
and a whole search must be the search whose memo never hits.  CI runs this
file under several ``PYTHONHASHSEED`` values: set iteration order, hence
pickle bytes, hence checkpoint byte counts depend on the string-hash order.
"""

import copy
import pickle
import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.api import Experiment, get_system
from repro.mc import (
    GlobalState,
    NodeLocal,
    SearchBudget,
    SearchKind,
    SearchStats,
    TransitionConfig,
    TransitionSystem,
)
from repro.mc.search import breadth_first_search
from repro.runtime import Address, Message
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
    search does it (hash, dedup, expand), message events also through
    ``apply_filtered``: every successor, and whether it was built to splice
    its hash from its parent's digests."""
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
                    steps.append(system.apply_filtered(state, event))
                for after in steps:
                    found.append((after, after._splice is not None))
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
    # Every parent of the walk was hashed before it was expanded, so every
    # successor must have spliced its hash from its parent's digests.
    assert all(spliced for _, spliced in walked)
    for after, _ in walked:
        assert after.state_hash() == _cold(after).state_hash()
        assert after._splice is None  # the replaced wrapper is let go
        derived, cold = after.signature(), _cold(after).signature()
        assert derived == cold
        assert repr(derived) == repr(cold)


def test_distinct_states_hash_apart(walked):
    # The hash is built from per-node, per-message and per-error hashes;
    # an additive or XOR combination of them would collide on states that
    # only move parts between nodes or messages (see the unit case below).
    by_hash: dict[int, tuple] = {}
    for after, _ in walked:
        signature = _cold(after).signature()
        assert by_hash.setdefault(after.state_hash(), signature) == signature
    assert len(by_hash) > WALK_TRANSITIONS // 10


def test_moving_parts_between_nodes_or_messages_changes_the_hash():
    # CPython's tuple hash is close to linear in its last items: a sum of
    # the per-node digests ``hash((host, port, node hash))`` does not move
    # when two nodes swap states, and the first assertion fails under it.
    # Messages that swap destinations must hash apart too.
    _, start = _start_states("randtree")[0]
    a, b, c = sorted(start.nodes)[:3]
    assert start.nodes[a].signature() != start.nodes[b].signature()
    swapped = GlobalState(nodes={**start.nodes, a: start.nodes[b],
                                 b: start.nodes[a]})
    assert _cold(start).state_hash() != swapped.state_hash()

    def sending(to_b: str, to_c: str) -> GlobalState:
        return GlobalState(nodes=start.nodes, inflight=(
            Message(mtype=to_b, src=a, dst=b),
            Message(mtype=to_c, src=a, dst=c)))

    assert sending("X", "Y").state_hash() != sending("Y", "X").state_hash()
    # The same holds for hashes spliced from a parent's digests.
    parent = GlobalState(nodes=start.nodes)
    parent.state_hash()
    spliced = parent.successor(sent=(Message(mtype="X", src=a, dst=b),
                                     Message(mtype="Y", src=a, dst=c)))
    assert spliced._splice is not None
    assert spliced.state_hash() == sending("X", "Y").state_hash()
    assert spliced.state_hash() != sending("Y", "X").state_hash()


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
    # Replay applies events to a state nobody hashed: its successors hold
    # no splice and hash from scratch when asked.
    system, start = _start_states("randtree")[0]
    state = start.clone()
    for _ in range(3):
        state = system.apply(state, system.enabled_events(state)[0])
        assert state._splice is None
    assert state.state_hash() == _cold(state).state_hash()
    assert state.signature() == _cold(state).signature()


# ------------------------------------------------------------ the transition memo

def _node_view(state: GlobalState, addr) -> tuple:
    """What a handler run leaves in ``state`` at ``addr``, with nothing
    taken from a cache: the state's signature and pickle bytes (after it is
    hashed, as a search does), its set orders and its timers."""
    local = state.nodes[addr]
    signature = local.state.signature()
    return (signature, pickle.dumps(local.state), _set_orders(local.state),
            local.timers)


def test_every_memo_hit_is_a_fresh_handler_run():
    # A walk that applies every event through one memo, as a search does,
    # and holds each result to a handler run on a clone of the same input.
    for name in SYSTEMS:
        hits = 0
        for system, start in _start_states(name):
            memo: dict = {}
            seen = {start.state_hash()}
            frontier = [start]
            for state in frontier:
                if len(seen) > WALK_TRANSITIONS:
                    break
                for event in system.enabled_events(state):
                    stored = len(memo)
                    after = system.apply(state, event, memo)
                    hits += len(memo) == stored
                    fresh = system.apply(state, event)
                    assert (_node_view(after, event.node)
                            == _node_view(fresh, event.node)), (name, event)
                    # Sent messages in order, closed connections, resets.
                    assert after.inflight == fresh.inflight
                    assert ([m.signature() for m in after.inflight]
                            == [m.signature() for m in fresh.inflight])
                    assert after.errors == fresh.errors
                    assert after.resets == fresh.resets
                    assert after.state_hash() == _cold(fresh).state_hash()
                    if after.state_hash() not in seen:
                        seen.add(after.state_hash())
                        frontier.append(after)
        assert hits, name  # the walks do repeat handler runs


def _searched(system, start, properties, kind, visited: list):
    budget = SearchBudget(max_states=400, max_depth=8,
                          record_visited_hashes=True)
    visited.clear()
    result = breadth_first_search(system, start, properties, budget, kind)
    stats = {name: value for name, value in vars(result.stats).items()
             if name not in ("elapsed_seconds", "_started_at")}
    violations = [(v.violation.property_name, v.violation.node,
                   v.violation.detail, [e.signature() for e in v.path],
                   v.state_hash) for v in result.violations]
    return violations, stats, list(visited)


def test_a_search_with_the_memo_is_the_search_without_it(monkeypatch):
    visited: list = []
    note = SearchStats.note_visited_hash

    def noting(stats, state_hash):
        visited.append(state_hash)
        note(stats, state_hash)

    monkeypatch.setattr(SearchStats, "note_visited_hash", noting)
    memoised = TransitionSystem.apply

    def never_hits(system, state, event, memo=None):
        return memoised(system, state, event)

    for name in SYSTEMS:
        properties = list(get_system(name).properties)
        for system, start in _start_states(name):
            for kind in SearchKind:
                monkeypatch.setattr(TransitionSystem, "apply", memoised)
                with_memo = _searched(system, start, properties, kind, visited)
                monkeypatch.setattr(TransitionSystem, "apply", never_hits)
                without = _searched(system, start, properties, kind, visited)
                assert with_memo == without, (name, kind)
                assert with_memo[2], (name, kind)


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
