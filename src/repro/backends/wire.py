"""Length-prefixed wire frames for deployed-mode transport.

One frame per message: a fixed header (magic, kind, payload length) followed
by the compact-bytes encoding (:func:`repro.runtime.serialization.
to_compact_bytes`, pickle + zlib) of the :class:`~repro.runtime.messages.
Message` — the same byte format the checkpoint manager's bandwidth
accounting charges for, so the bytes crossing the socket are the bytes the
paper's Section 3.1 accounting models.  Control-plane messages (checkpoint
requests/responses, steering probes) are tagged in the header so wire
statistics can split service from control traffic without decoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

from ..runtime.messages import Message
from ..runtime.serialization import from_compact_bytes, to_compact_bytes

#: Frame header: magic (2 bytes), kind (1 byte), payload length (4 bytes).
_HEADER = struct.Struct(">HBI")
FRAME_MAGIC = 0xCB09  # CrystalBall, NSDI'09
HEADER_SIZE = _HEADER.size

#: Header ``kind`` values.
KIND_SERVICE = 0
KIND_CONTROL = 1

#: Refuse absurd frames instead of allocating unbounded buffers.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireError(ValueError):
    """A malformed frame arrived (bad magic, kind or length, or a payload
    that does not decode into a :class:`Message`)."""


def encode_frame(message: Message) -> bytes:
    """Encode ``message`` into one length-prefixed frame."""
    payload = to_compact_bytes(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling")
    kind = KIND_CONTROL if message.control else KIND_SERVICE
    return _HEADER.pack(FRAME_MAGIC, kind, len(payload)) + payload


def decode_frame(frame: bytes) -> Message:
    """Decode one complete frame back into its :class:`Message`."""
    header, payload = frame[:HEADER_SIZE], frame[HEADER_SIZE:]
    length = decode_header(header)
    if len(payload) != length:
        raise WireError(
            f"frame payload is {len(payload)} bytes, header says {length}")
    return _decode_payload(payload)


def decode_header(header: bytes) -> int:
    """Validate a frame header and return the payload length."""
    if len(header) != HEADER_SIZE:
        raise WireError(f"truncated frame header ({len(header)} bytes)")
    magic, kind, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise WireError(f"bad frame magic 0x{magic:04x}")
    if kind not in (KIND_SERVICE, KIND_CONTROL):
        raise WireError(f"unknown frame kind {kind}")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame announces {length} bytes (over the ceiling)")
    return length


def write_frame(stream: Any, message: Message) -> int:
    """Write one frame with ``stream.sendall``; returns bytes written."""
    frame = encode_frame(message)
    stream.sendall(frame)
    return len(frame)


def read_frame(stream: Any) -> Message:
    """Read one complete frame with ``stream.recv_into``.

    Raises :class:`ConnectionError` on EOF mid-frame, :class:`WireError` on
    a malformed header, and the socket's timeout when bytes stop coming.
    """
    length = decode_header(_recv_exactly(stream, HEADER_SIZE))
    return _decode_payload(_recv_exactly(stream, length))


def _decode_payload(payload: bytes) -> Message:
    # A short length cuts the zlib stream, a forged pickle names a foreign
    # global, and unpickling garbage can raise almost any exception type:
    # each is a malformed frame, which the caller survives, not a crash.
    try:
        message = from_compact_bytes(payload)
    except Exception as exc:
        raise WireError(f"frame payload does not decode: {exc!r}") from None
    if not isinstance(message, Message):
        raise WireError(f"frame payload is a {type(message).__name__}")
    return message


def _recv_exactly(stream: Any, size: int) -> bytearray:
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        received = stream.recv_into(view, len(view))
        if not received:
            raise ConnectionError(f"stream closed {len(view)} of {size} bytes short")
        view = view[received:]
    return buffer


@dataclass
class WireStats:
    """Deterministic per-run accounting of deployed-mode wire traffic."""

    service_frames: int = 0
    control_frames: int = 0
    wire_bytes: int = 0
    by_mtype: dict[str, int] = field(default_factory=dict)

    def record(self, message: Message, frame_bytes: int) -> None:
        self.wire_bytes += frame_bytes
        if message.control:
            self.control_frames += 1
        else:
            self.service_frames += 1
        self.by_mtype[message.mtype] = self.by_mtype.get(message.mtype, 0) + 1

    def report(self) -> dict[str, Any]:
        """JSON-ready summary (merged into ``RunReport.outcome["wire"]``)."""
        return {
            "frames_sent": self.service_frames + self.control_frames,
            "service_frames": self.service_frames,
            "control_frames": self.control_frames,
            "wire_bytes": self.wire_bytes,
            "by_mtype": dict(sorted(self.by_mtype.items())),
        }
