"""Tests for messages and events."""

from repro.runtime import (
    Address,
    AppEvent,
    ConnectionErrorEvent,
    Message,
    MessageEvent,
    ResetEvent,
    TimerEvent,
    is_internal,
)


def _msg(**kwargs):
    defaults = dict(mtype="Ping", src=Address(1), dst=Address(2), payload={"x": 1})
    defaults.update(kwargs)
    return Message(**defaults)


def test_message_signature_ignores_msg_id():
    assert _msg().signature() == _msg().signature()


def test_message_signature_distinguishes_payload_and_type():
    assert _msg().signature() != _msg(payload={"x": 2}).signature()
    assert _msg().signature() != _msg(mtype="Pong").signature()


def test_message_equality_ignores_msg_id():
    assert _msg() == _msg()


def test_message_size_includes_payload():
    assert _msg(payload={"blob": "x" * 500}).size_bytes() > _msg().size_bytes()


def test_message_get_defaults():
    assert _msg().get("x") == 1
    assert _msg().get("missing", 9) == 9


def test_event_signatures_distinct_across_types():
    node = Address(1)
    events = [
        MessageEvent(node=node, message=_msg()),
        TimerEvent(node=node, timer="t"),
        AppEvent(node=node, call="join"),
        ResetEvent(node=node),
        ConnectionErrorEvent(node=node, peer=Address(2)),
    ]
    signatures = {e.signature() for e in events}
    assert len(signatures) == len(events)


def test_is_internal_classification():
    node = Address(1)
    assert not is_internal(MessageEvent(node=node, message=_msg()))
    assert is_internal(TimerEvent(node=node, timer="t"))
    assert is_internal(ResetEvent(node=node))
    assert is_internal(AppEvent(node=node, call="join"))
    assert is_internal(ConnectionErrorEvent(node=node, peer=Address(2)))


def test_event_describe_mentions_node():
    assert "1:5000" in TimerEvent(node=Address(1), timer="t").describe()
