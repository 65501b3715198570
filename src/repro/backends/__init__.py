"""Pluggable execution backends for the CrystalBall runtime.

See :mod:`repro.backends.base` for the :class:`ExecutionBackend` contract
(the default ``sim`` backend is :class:`~repro.runtime.simulator.Simulator`
itself) and :mod:`repro.backends.tcp` for deployed mode over real TCP
sockets.
"""

from .base import (
    BACKENDS,
    ExecutionBackend,
    backend_names,
    get_backend,
    make_backend,
    protocol_state_digest,
    register_backend,
)
from .tcp import AsyncioTcpBackend
from .wire import (
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
    write_frame,
)

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "AsyncioTcpBackend",
    "backend_names",
    "get_backend",
    "make_backend",
    "protocol_state_digest",
    "register_backend",
    "FRAME_MAGIC",
    "HEADER_SIZE",
    "KIND_CONTROL",
    "KIND_SERVICE",
    "MAX_FRAME_BYTES",
    "WireError",
    "WireStats",
    "decode_frame",
    "decode_header",
    "encode_frame",
    "read_frame",
    "write_frame",
]
