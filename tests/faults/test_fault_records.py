"""A fault is its own trace record and, for window faults, its own
interceptor: the two things that used to be separate classes."""

import dataclasses
import json
import random

import pytest

from repro.faults import (
    ClockSkew,
    CrashRestart,
    EquivocatingNode,
    Fault,
    LinkFlap,
    MessageDelay,
    MessageDup,
    MessageReorder,
    MessageTamper,
    Partition,
    SpoofSender,
)
from repro.runtime import Message, Transport

#: One instance per concrete type, every parameter off its default.
NON_DEFAULT = [
    Partition(at=1.5, duration=2.0, fraction=0.25, min_side=2, spare=1),
    LinkFlap(at=1.5, duration=2.0),
    CrashRestart(at=1.5, duration=2.0, spare=2),
    ClockSkew(at=1.5, amount=9, spare=1),
    MessageDelay(at=1.5, duration=2.0, min_extra=0.3, max_extra=0.7),
    MessageReorder(at=1.5, duration=2.0, probability=0.9, window=2.5),
    MessageDup(at=1.5, duration=2.0, probability=0.6),
    MessageTamper(at=1.5, duration=2.0, probability=0.8, variants=2,
                  mtypes=("Promise", "Accept"), mutator=lambda m, r, v: None),
    SpoofSender(at=1.5, duration=2.0, probability=0.8, mtypes=("Ping",)),
    EquivocatingNode(at=1.5, duration=2.0, target=1, spare=1,
                     mtypes=("Promise",)),
]


def test_fault_kinds_is_exactly_the_concrete_types():
    assert Fault.kinds == {type(f).name: type(f) for f in NON_DEFAULT}


@pytest.mark.parametrize("fault", NON_DEFAULT, ids=lambda f: f.name)
def test_every_kind_round_trips_through_json(fault):
    fault = dataclasses.replace(fault, rng_key="attack/3/1")
    restored = Fault.from_dict(json.loads(json.dumps(fault.to_dict())))
    assert type(restored) is type(fault)
    for f in dataclasses.fields(fault):
        expected = None if f.name == "mutator" else getattr(fault, f.name)
        value = getattr(restored, f.name)
        assert value == expected, f.name
        assert type(value) is type(expected), f.name  # tuples stay tuples


def test_unknown_kind_is_refused_with_the_known_ones():
    with pytest.raises(ValueError) as excinfo:
        Fault.from_dict({"kind": "no-such-fault", "at": 1.0})
    assert str(excinfo.value) == (
        "unknown schedule step kind 'no-such-fault' "
        f"(known kinds: {', '.join(sorted(Fault.kinds))})")


def test_field_equal_windows_are_told_apart_by_identity(ping_sim):
    sim, addrs = ping_sim
    first = MessageDelay(every=5.0, duration=2.0)
    second = MessageDelay(every=5.0, duration=2.0)
    assert first.inject(sim, random.Random(0)) is not None
    assert second.inject(sim, random.Random(0)) is not None
    assert first.inject(sim, random.Random(0)) is None  # still open: skip

    # Still field-equal, so removal by ``==`` would take ``first`` here.
    assert first == second and first is not second
    assert second.heal(sim) == {"messages_affected": 0}
    assert [w is first for w in sim.network.interceptors] == [True]
    assert second.heal(sim) is None  # idempotent

    assert second.inject(sim, random.Random(0)) is not None
    message = Message(mtype="Ping", src=addrs[0], dst=addrs[1],
                      payload={"seq": 1}, transport=Transport.UDP)
    second.transform(message, [0.1], random.Random(0))
    assert first.heal(sim) == {"messages_affected": 0}
    assert [w is second for w in sim.network.interceptors] == [True]
    assert second.heal(sim) == {"messages_affected": 1}
    assert not sim.network.interceptors
    assert first.heal(sim) is None
