"""Tests for the deployed-mode wire format (frames and accounting)."""

import os
import pickle
import socket
import struct
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    FRAME_MAGIC,
    HEADER_SIZE,
    KIND_CONTROL,
    KIND_SERVICE,
    MAX_FRAME_BYTES,
    WireError,
    WireStats,
    decode_frame,
    decode_header,
    encode_frame,
    read_frame,
)
from repro.obs.tracer import JsonlTracer
from repro.runtime import Address, Message, Transport
from repro.runtime.serialization import to_compact_bytes

_HEADER = struct.Struct(">HBI")


def _msg(**kwargs):
    defaults = dict(mtype="Ping", src=Address(1), dst=Address(2),
                    payload={"n": 7})
    defaults.update(kwargs)
    return Message(**defaults)


def test_encode_decode_round_trip_preserves_message():
    message = _msg(payload={"blocks": (1, 2, 3), "origin": Address(4)},
                   transport=Transport.UDP, checkpoint_number=5)
    decoded = decode_frame(encode_frame(message))
    assert decoded.mtype == message.mtype
    assert decoded.src == message.src and decoded.dst == message.dst
    assert decoded.payload == message.payload
    assert decoded.transport is Transport.UDP
    assert decoded.checkpoint_number == 5
    assert decoded.msg_id == message.msg_id


def test_a_frame_carries_the_fields_not_the_caches():
    src, dst, origin = Address(1), Address(2), Address(4)
    for address in (src, dst, origin):
        address.frozen()
    message = _msg(src=src, dst=dst, msg_id=9,
                   payload={"blocks": (1, 2, 3), "origin": origin})
    fresh = encode_frame(message)
    message.size_bytes()
    message.signature()
    assert encode_frame(message) == fresh
    decoded = decode_frame(fresh)
    assert decoded == message and decoded.msg_id == 9
    assert decoded._sig_cache is None and "_size" not in decoded.__dict__


def test_header_tags_control_frames():
    service = encode_frame(_msg())
    control = encode_frame(_msg(mtype="_cb_checkpoint_request", control=True))
    assert _HEADER.unpack(service[:HEADER_SIZE])[1] == KIND_SERVICE
    assert _HEADER.unpack(control[:HEADER_SIZE])[1] == KIND_CONTROL


def test_header_announces_payload_length():
    frame = encode_frame(_msg())
    magic, _kind, length = _HEADER.unpack(frame[:HEADER_SIZE])
    assert magic == FRAME_MAGIC
    assert length == len(frame) - HEADER_SIZE


def test_truncated_header_rejected():
    with pytest.raises(WireError, match="truncated"):
        decode_header(b"\x00\x01")


def test_bad_magic_rejected():
    header = _HEADER.pack(0xDEAD, KIND_SERVICE, 4)
    with pytest.raises(WireError, match="magic"):
        decode_header(header)


def test_unknown_kind_rejected():
    header = _HEADER.pack(FRAME_MAGIC, 9, 4)
    with pytest.raises(WireError, match="kind"):
        decode_header(header)


def test_oversized_announcement_rejected():
    header = _HEADER.pack(FRAME_MAGIC, KIND_SERVICE, MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="ceiling"):
        decode_header(header)


def test_length_mismatch_rejected():
    frame = encode_frame(_msg())
    with pytest.raises(WireError, match="header says"):
        decode_frame(frame + b"trailing")


def test_wire_stats_split_service_from_control():
    stats = WireStats()
    stats.record(_msg(), 100)
    stats.record(_msg(mtype="_cb_checkpoint_request", control=True), 50)
    stats.record(_msg(), 100)
    report = stats.report()
    assert report["frames_sent"] == 3
    assert report["service_frames"] == 2
    assert report["control_frames"] == 1
    assert report["wire_bytes"] == 250
    assert report["by_mtype"] == {"Ping": 2, "_cb_checkpoint_request": 1}


# -- torn frames off a real socket --------------------------------------------

_TIMEOUT = 2.0
_FRAME = encode_frame(_msg(payload={"blocks": (1, 2, 3), "origin": Address(4)}))
_MAGIC, _KIND, _LENGTH = _HEADER.unpack(_FRAME[:HEADER_SIZE])


def _read_sent(data):
    """``read_frame`` off a loopback socket whose peer sent ``data``, then EOF."""
    with socket.create_server(("127.0.0.1", 0)) as listener, \
            socket.create_connection(listener.getsockname()) as sender:
        receiver, _ = listener.accept()
        with receiver:
            receiver.settimeout(_TIMEOUT)
            sender.sendall(data)
            sender.shutdown(socket.SHUT_WR)
            started = time.monotonic()
            try:
                return read_frame(receiver)
            finally:
                assert time.monotonic() - started < _TIMEOUT


def test_a_whole_frame_reads_back_off_a_socket():
    assert _read_sent(_FRAME).payload == {"blocks": (1, 2, 3),
                                          "origin": Address(4)}


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(0, len(_FRAME) - 1))
def test_every_truncated_frame_is_refused(cut):
    with pytest.raises((ConnectionError, WireError)):
        _read_sent(_FRAME[:cut])


@settings(max_examples=60, deadline=None)
@given(header=st.one_of(
    st.tuples(st.integers(0, 0xFFFF).filter(lambda m: m != FRAME_MAGIC),
              st.just(_KIND), st.just(_LENGTH)),
    st.tuples(st.just(_MAGIC),
              st.integers(0, 0xFF).filter(
                  lambda k: k not in (KIND_SERVICE, KIND_CONTROL)),
              st.just(_LENGTH)),
    st.tuples(st.just(_MAGIC), st.just(_KIND),
              st.integers(0, 2 ** 32 - 1).filter(lambda n: n != _LENGTH))))
def test_a_corrupted_header_is_refused(header):
    # Only the header is fuzzed: a short length cuts the zlib stream, which
    # never decompresses, so no fuzzed bytes reach ``pickle.loads``.
    with pytest.raises((ConnectionError, WireError)):
        _read_sent(_HEADER.pack(*header) + _FRAME[HEADER_SIZE:])


class _Forged:
    """Pickles as a call of ``fn(*args)``."""

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def __reduce__(self):
        return self.fn, self.args


def _frame_of(payload):
    return _HEADER.pack(FRAME_MAGIC, KIND_SERVICE, len(payload)) + payload


def test_a_frame_that_is_no_message_is_refused_unrun(tmp_path):
    ran = tmp_path / "ran"
    for frame in (
            _frame_of(zlib.compress(pickle.dumps(
                _Forged(os.system, f"touch {ran}")))),
            _frame_of(zlib.compress(pickle.dumps(
                _Forged(JsonlTracer, str(ran))))),
            # Decodes, but into an allowed type that is not a Message.
            _frame_of(to_compact_bytes(Address(4)))):
        with pytest.raises(WireError):
            decode_frame(frame)
        with pytest.raises(WireError):
            _read_sent(frame)
        assert not ran.exists()
