"""Tests for canonical freezing, hashing and size accounting."""

from dataclasses import dataclass, field

from repro.runtime.serialization import (
    compressed_size,
    diff_size,
    estimate_size,
    freeze,
)


def test_freeze_scalars_pass_through():
    for value in (None, True, 3, 2.5, "x", b"y"):
        assert freeze(value) == value


def test_freeze_dict_is_order_independent():
    assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})


def test_freeze_set_is_order_independent():
    assert freeze({3, 1, 2}) == freeze({2, 3, 1})


def test_freeze_nested_containers_hashable():
    frozen = freeze({"a": [1, {2, 3}], "b": {"c": (4, 5)}})
    assert hash(frozen) == hash(frozen)


@dataclass
class _Sample:
    x: int = 1
    items: list = field(default_factory=list)


def test_freeze_dataclass_includes_fields():
    assert freeze(_Sample(x=2, items=[1])) != freeze(_Sample(x=3, items=[1]))
    assert freeze(_Sample()) == freeze(_Sample())


def test_stable_hash_consistent_for_equal_values():
    assert hash(freeze({"k": [1, 2]})) == hash(freeze({"k": [1, 2]}))


def test_estimate_size_positive_and_monotone_in_content():
    small = estimate_size({"a": 1})
    big = estimate_size({"a": list(range(1000))})
    assert 0 < small < big


def test_compressed_size_smaller_for_repetitive_data():
    data = {"blocks": [7] * 5000}
    assert compressed_size(data) < estimate_size(data)


def test_diff_size_is_tiny_for_identical_states():
    state = {"a": list(range(100))}
    assert diff_size(state, dict(state)) == 16
    assert diff_size(state, {"a": [1]}) > 16
