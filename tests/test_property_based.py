"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.analysis import empirical_cdf, median, percentile
from repro.core import Checkpoint, CheckpointStore
from repro.mc import GlobalState
from repro.runtime import Address
from repro.runtime.serialization import freeze
from repro.systems.chord import in_interval, ring_distance
from repro.systems.paxos import Paxos, PaxosConfig
from repro.systems.randtree import RandTree, RandTreeConfig


json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@given(json_like)
def test_freeze_is_deterministic_and_hashable(value):
    assert freeze(value) == freeze(value)
    hash(freeze(value))
    assert hash(freeze(value)) == hash(freeze(value))


@given(st.dictionaries(st.text(max_size=4), st.integers(), max_size=6))
def test_freeze_dict_ignores_insertion_order(d):
    items = list(d.items())
    reordered = dict(reversed(items))
    assert freeze(d) == freeze(reordered)


@given(st.integers(0, 65535), st.integers(0, 65535))
def test_ring_distance_antisymmetry(a, b):
    space = 1 << 16
    assert 0 <= ring_distance(a, b) < space
    if a != b:
        assert ring_distance(a, b) + ring_distance(b, a) == space


@given(st.integers(0, 65535), st.integers(0, 65535), st.integers(0, 65535))
def test_in_interval_excludes_endpoints(value, low, high):
    if value in (low, high):
        assert not in_interval(value, low, high)


@given(st.lists(st.integers(1, 100), min_size=1, max_size=30, unique=True))
def test_checkpoint_store_keeps_newest_under_quota(checkpoint_numbers):
    protocol = RandTree(RandTreeConfig())
    store = CheckpointStore(quota=5)
    addr = Address(1)
    for cn in checkpoint_numbers:
        store.record(Checkpoint(node=addr, checkpoint_number=cn,
                                state=protocol.initial_state(addr)))
    assert len(store) <= 5
    kept = [c.checkpoint_number for c in store.checkpoints]
    assert kept == sorted(kept)
    assert store.latest().checkpoint_number == max(checkpoint_numbers)
    # respond() never returns a checkpoint older than requested.
    for requested in checkpoint_numbers:
        answer = store.respond(requested)
        if answer is not None:
            assert answer.checkpoint_number >= requested


@given(st.sets(st.integers(1, 40), min_size=1, max_size=8),
       st.sets(st.integers(1, 40), min_size=0, max_size=8))
def test_randtree_state_hash_reflects_children_and_siblings(children, siblings):
    protocol = RandTree(RandTreeConfig())
    addr = Address(100)
    s1 = protocol.initial_state(addr)
    s1.children = {Address(i) for i in children}
    s1.siblings = {Address(i) for i in siblings}
    s2 = protocol.initial_state(addr)
    s2.children = {Address(i) for i in children}
    s2.siblings = {Address(i) for i in siblings}
    assert s1.state_hash() == s2.state_hash()
    gs1 = GlobalState.from_snapshot({addr: s1})
    gs2 = GlobalState.from_snapshot({addr: s2})
    assert gs1.state_hash() == gs2.state_hash()


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(max_examples=30)
def test_paxos_learner_chooses_at_most_one_value_per_majority(learns_a, learns_b):
    protocol = Paxos(PaxosConfig(peers=(Address(1), Address(2), Address(3))))
    state = protocol.initial_state(Address(1))
    for value in learns_a:
        state.record_learn(value, Address(2))
    for value in learns_b:
        state.record_learn(value, Address(3))
    # A value is chosen only with a majority (2 of 3) of distinct acceptors.
    for value in state.chosen_values:
        assert len(state.learns[value]) >= 2


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_cdf_and_percentile_invariants(values):
    cdf = empirical_cdf(values)
    fractions = [p.fraction for p in cdf]
    assert fractions == sorted(fractions)
    assert abs(fractions[-1] - 1.0) < 1e-9
    assert min(values) <= median(values) <= max(values)
    assert percentile(values, 0.0) == min(values)
    assert percentile(values, 1.0) == max(values)
