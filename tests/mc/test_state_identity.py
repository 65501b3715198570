"""A successor's identity is its parent's plus what the step changed.

One generated differential check over all six bundled systems: every
successor's hash spliced from its parent's digests before it is built must
be the hash of the same state hashed from scratch, distinct states must
hash apart, and every clone must be the state ``copy.deepcopy`` would have
produced, byte for byte.  A search's memo hands one handler run to every
successor that repeats it and interns node states by content, so every hit
and every interned state must be what a fresh run on a clone makes, and a
whole search must be the search whose memo never hits.  CI runs this file
under several ``PYTHONHASHSEED`` values: set iteration order, hence pickle
bytes, hence intern keys and checkpoint byte counts depend on the
string-hash order.
"""

import copy
import pickle
import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.api import Experiment, get_system
import repro.mc.transition
from repro.mc import (
    GlobalState,
    NodeLocal,
    SearchBudget,
    SearchKind,
    SearchStats,
    Step,
    TransitionConfig,
    TransitionSystem,
)
from repro.mc.search import breadth_first_search
from repro.mc.transition import Memo
from repro.runtime import Address, Message, Protocol
from repro.runtime.events import AppEvent, MessageEvent, TimerEvent
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


def _walk(name: str) -> list[tuple[GlobalState, Step, GlobalState]]:
    """Breadth-first walk from every start state of ``name``, the way a
    search does it (hash, splice, build, size), message events also
    refused: ``(parent, step, successor)`` for every step taken."""
    found = []
    starts = _start_states(name)
    for system, start in starts:
        seen = {start.state_hash()}
        start.size_bytes()
        frontier = [start]
        quota = len(found) + WALK_TRANSITIONS // len(starts) + 1
        for state in frontier:
            if len(found) >= quota:
                break
            for event in system.enabled_events(state):
                steps = [system.step(state, event)]
                if isinstance(event, MessageEvent):
                    steps.append(system.filtered_step(state, event))
                for step in steps:
                    after = state.after(step, state.splice(step))
                    after.size_bytes()
                    found.append((state, step, after))
                    if after.state_hash() not in seen:
                        seen.add(after.state_hash())
                        frontier.append(after)
    return found


@pytest.fixture(scope="module", params=SYSTEMS)
def walked(request) -> list[tuple[GlobalState, Step, GlobalState]]:
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
    # The hash spliced before the successor exists, the successor built
    # from that splice, the successor built plainly and the same state with
    # nothing cached must all agree; so must the spliced size.
    for parent, step, after in walked:
        built = parent.after(step)
        assert built._hash_cache is None  # built plainly: nothing spliced
        cold = _cold(after)
        assert (parent.splice(step).state_hash == after.state_hash()
                == built.state_hash() == cold.state_hash())
        assert after.size_bytes() == cold.size_bytes()
        assert after.inflight == built.inflight
        assert after.errors == built.errors
        derived, cold_signature = after.signature(), cold.signature()
        assert derived == cold_signature
        assert repr(derived) == repr(cold_signature)


def test_distinct_states_hash_apart(walked):
    # The hash is built from per-node, per-message and per-error hashes;
    # an additive or XOR combination of them would collide on states that
    # only move parts between nodes or messages (see the unit case below).
    by_hash: dict[int, tuple] = {}
    for _, _, after in walked:
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
    spliced = parent.splice(Step(sent=(Message(mtype="X", src=a, dst=b),
                                       Message(mtype="Y", src=a, dst=c))))
    spliced = spliced.state_hash
    assert spliced == sending("X", "Y").state_hash()
    assert spliced != sending("Y", "X").state_hash()


def test_a_consumed_message_is_found_among_equal_ones():
    # Two equal messages in flight: consuming either leaves one, and the
    # spliced hash is the cold hash of what is left.  A message with the
    # same signature but another checkpoint number is not equal, so it is
    # not the one consumed; a message that equals none in flight (the
    # immediate safety check's live event) removes nothing.
    _, start = _start_states("randtree")[0]
    a, b = sorted(start.nodes)[:2]
    twin = Message(mtype="X", src=a, dst=b)
    numbered = Message(mtype="X", src=a, dst=b, checkpoint_number=1)
    parent = GlobalState(nodes=start.nodes, inflight=(
        numbered, twin, Message(mtype="Y", src=a, dst=b),
        Message(mtype="X", src=a, dst=b)))
    assert numbered.signature() == twin.signature() and numbered != twin
    for consumed, left in ((twin, (numbered, twin)),
                           (parent.inflight[3], (numbered, twin)),
                           (numbered, (twin, twin)),
                           (Message(mtype="Z", src=a, dst=b),
                            (numbered, twin, twin))):
        step = Step(message=consumed)
        after = parent.after(step, parent.splice(step))
        assert [m for m in after.inflight if m.mtype == "X"] == list(left)
        assert after.inflight == parent.after(step).inflight
        assert after.state_hash() == _cold(after).state_hash()


def test_clone_is_the_deepcopy_byte_for_byte(walked):
    for _, _, after in walked:
        for local in after.nodes.values():
            state = local.state
            clone = state.clone()
            assert clone is not state and clone == state
            assert pickle.dumps(clone) == pickle.dumps(state)
            assert pickle.dumps(clone) == pickle.dumps(copy.deepcopy(state))
            assert _set_orders(clone) == _set_orders(state)


def test_mutating_a_clone_leaves_the_original_alone(walked):
    for _, _, after in walked:
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
    for _, _, after in walked:
        for local in after.nodes.values():
            local.state.clone()


def test_an_unhashed_parent_is_not_retained():
    # Replay applies events to a state nobody hashed: its successors carry
    # nothing spliced and hash from scratch when asked.
    system, start = _start_states("randtree")[0]
    state = start.clone()
    for _ in range(3):
        state = system.apply(state, system.enabled_events(state)[0])
        assert state._hash_cache is None and state._digests is None
    assert state.state_hash() == _cold(state).state_hash()
    assert state.signature() == _cold(state).signature()


# ------------------------------------------------------------ the transition memo

def _node_view(local: NodeLocal) -> tuple:
    """What a handler run leaves in a node, with nothing taken from a
    cache: the state's signature and pickle bytes (after it is hashed, as
    a search does), its set orders and its timers."""
    signature = local.state.signature()
    return (signature, pickle.dumps(local.state), _set_orders(local.state),
            local.timers)


def test_every_memo_hit_is_a_fresh_handler_run():
    # A walk that steps every event through one memo, as a search does,
    # and holds each result, interned node state included, to a handler
    # run on a clone of the same input.
    interned = 0
    for name in SYSTEMS:
        hits = 0
        for system, start in _start_states(name):
            memo = Memo()
            seen = {start.state_hash()}
            for addr, local in start.nodes.items():
                memo.intern(addr, local)
            start.size_bytes()
            frontier = [start]
            for state in frontier:
                if len(seen) > WALK_TRANSITIONS:
                    break
                for event in system.enabled_events(state):
                    stored, nodes = len(memo.steps), len(memo.nodes)
                    step = system.step(state, event, memo)
                    hits += len(memo.steps) == stored
                    # A new run whose output joined an equal node state.
                    interned += (len(memo.steps) > stored
                                 and len(memo.nodes) == nodes)
                    fresh = system.step(state, event)
                    assert (_node_view(step.local)
                            == _node_view(fresh.local)), (name, event)
                    assert step.local.size_bytes() == fresh.local.size_bytes()
                    # Sent messages in order, closed connections, resets.
                    assert step.sent == fresh.sent
                    assert ([m.signature() for m in step.sent]
                            == [m.signature() for m in fresh.sent])
                    assert step.raised == fresh.raised
                    assert step.reset == fresh.reset
                    splice = state.splice(step)
                    after = state.after(step, splice)
                    assert (splice.state_hash == state.splice(fresh).state_hash
                            == _cold(state.after(fresh)).state_hash())
                    assert after.size_bytes() == _cold(after).size_bytes()
                    if after.state_hash() not in seen:
                        seen.add(after.state_hash())
                        frontier.append(after)
        assert hits, name  # the walks do repeat handler runs
    assert interned  # and do reach equal node states along two paths


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
    # Without the memo and the intern table every handler runs, and every
    # node state is its own object.
    visited: list = []
    note = SearchStats.note_visited_hash

    def noting(stats, state_hash):
        visited.append(state_hash)
        note(stats, state_hash)

    monkeypatch.setattr(SearchStats, "note_visited_hash", noting)
    memoised = TransitionSystem.step
    runner = repro.mc.transition.run_handler
    runs = {"with": 0, "without": 0}

    def never_hits(system, state, event, memo=None):
        return memoised(system, state, event)

    interning = {"with": Memo.intern,
                 "without": lambda memo, addr, local: local}

    for name in SYSTEMS:
        properties = list(get_system(name).properties)
        for system, start in _start_states(name):
            for kind in SearchKind:
                results = {}
                for label, step in (("with", memoised),
                                    ("without", never_hits)):
                    def counting(*args, label=label, **kwargs):
                        runs[label] += 1
                        return runner(*args, **kwargs)

                    monkeypatch.setattr(TransitionSystem, "step", step)
                    monkeypatch.setattr(Memo, "intern", interning[label])
                    monkeypatch.setattr(repro.mc.transition, "run_handler",
                                        counting)
                    results[label] = _searched(system, start, properties,
                                               kind, visited)
                assert results["with"] == results["without"], (name, kind)
                assert results["with"][1]["peak_memory_bytes"], (name, kind)
                assert results["with"][2], (name, kind)
    assert runs["with"] < runs["without"] / 2, runs


#: A value pickle refuses: a lambda is looked up by a name it does not have.
_OPAQUE = lambda: None  # noqa: E731


@dataclass
class _Ledger(NodeState):
    table: dict = field(default_factory=dict)
    items: set = field(default_factory=set)
    extra: Any = None


class _Ordering(Protocol):
    """Each application call writes one value of ``table`` or ``items``
    (or ``extra``), in the insertion order its name spells; a ``tick``
    timer re-arms itself and counts its runs."""

    CALLS = {
        "ab": ("table", lambda: {"a": 1, "b": 2}),
        "ab-again": ("table", lambda: {"a": 1, "b": 2}),
        "ba": ("table", lambda: {"b": 2, "a": 1}),
        "0-8": ("items", lambda: {0, 8}),
        "8-0": ("items", lambda: _inserted(8, 0)),
        "opaque": ("extra", lambda: _OPAQUE),
        "opaque-again": ("extra", lambda: _OPAQUE),
    }

    def __init__(self) -> None:
        self.ticks = 0

    def initial_state(self, addr):
        return _Ledger()

    def handle_message(self, ctx, state, message):
        pass

    def handle_timer(self, ctx, state, timer):
        self.ticks += 1
        ctx.set_timer(timer, 1.0)

    def handle_app(self, ctx, state, call, payload):
        name, value = self.CALLS[call]
        setattr(state, name, value())


def _inserted(*values) -> set:
    found = set()
    for value in values:
        found.add(value)
    return found


def _stepped(protocol: _Ordering, *calls: str) -> tuple[GlobalState, Memo,
                                                         list[Step]]:
    a = Address(1)
    start = GlobalState.from_snapshot({a: _Ledger()}, timers={a: ["tick"]})
    start.state_hash()
    memo = Memo()
    memo.intern(a, start.nodes[a])
    start.size_bytes()
    system = TransitionSystem(protocol, TransitionConfig(enable_resets=False))
    steps = [system.step(start, AppEvent(node=a, call=call, payload={}), memo)
             for call in calls]
    for step in steps:
        after = start.after(step, start.splice(step))
        system.step(after, TimerEvent(node=a, timer="tick"), memo)
    return start, memo, steps


def test_equal_signatures_in_another_order_are_not_interned():
    assert list(_inserted(8, 0)) != list({0, 8})  # the orders do differ
    for first, second in (("ab", "ba"), ("0-8", "8-0")):
        protocol = _Ordering()
        start, _, (one, other) = _stepped(protocol, first, second)
        assert one.local.signature() == other.local.signature()
        assert pickle.dumps(one.local.state) != pickle.dumps(other.local.state)
        assert one.local is not other.local
        assert protocol.ticks == 2  # each ran its own tick
        assert start.splice(one).state_hash == start.splice(other).state_hash
    # The control: the same content in the same order is one node state,
    # whose tick runs once.
    protocol = _Ordering()
    _, memo, (one, again) = _stepped(protocol, "ab", "ab-again")
    assert one.local is again.local
    assert protocol.ticks == 1
    assert len(memo.nodes) == 2  # the start's node state and this one


def test_a_state_that_does_not_pickle_is_not_interned():
    protocol = _Ordering()
    start, memo, (one, other) = _stepped(protocol, "opaque", "opaque-again")
    assert one.local.pickled() is None
    assert one.local.signature() == other.local.signature()
    assert one.local is not other.local  # two runs, two wrappers
    assert protocol.ticks == 2
    assert len(memo.nodes) == 1  # the start's node state alone
    assert one.local.size_bytes() > 0
    assert start.splice(one).state_hash != start.state_hash()


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
