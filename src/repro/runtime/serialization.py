"""Canonical freezing, hashing and size accounting for node state.

Model checking needs a stable, hashable signature of arbitrary protocol
state (Figure 5/8 store ``hash(state)`` in the ``explored`` set), and the
checkpoint manager needs to estimate how many bytes a checkpoint occupies on
the wire (Section 3.1, "Managing Bandwidth Consumption").  Both are built on
:func:`freeze`, which converts nested Python containers into a canonical
immutable form.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import pickle
import sys
import zlib
from typing import Any

Frozen = Any  # a hashable, canonical representation


def freeze(value: Any) -> Frozen:
    """Return a canonical hashable representation of ``value``.

    Dictionaries become sorted tuples of (key, value) pairs, sets become
    sorted tuples, lists/tuples become tuples, dataclasses become
    ``(class name, sorted field tuples)``.  The result is deterministic
    across runs, which keeps model-checker hashes reproducible.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, dict):
        return tuple(sorted(((freeze(k), freeze(v)) for k, v in value.items()),
                            key=repr))
    if isinstance(value, (set, frozenset)):
        return ("__set__",) + tuple(sorted((freeze(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Immutable dataclasses (e.g. Address) expose a cached frozen
        # form; computing it once matters because the model checker
        # freezes the same value objects for every state hash.
        frozen_form = getattr(value, "frozen", None)
        if frozen_form is not None:
            return frozen_form()
        fields = tuple(
            (f.name, freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
        return (type(value).__name__,) + fields
    if hasattr(value, "signature"):
        return value.signature()
    # Fall back to repr for anything exotic; still deterministic for
    # well-behaved value types.
    return repr(value)


def unchanged(old: Any, new: Any) -> bool:
    """The one definition of "this field did not change": a model-checker
    successor reuses its parent's frozen entry for such a field and the
    delta encoding leaves it out.  Equal values of different types
    (``1 == True``) count as changed, which only costs a re-freeze."""
    return old is new or (type(old) is type(new) and old == new)


def estimate_size(value: Any) -> int:
    """Estimate the serialized size of ``value`` in bytes.

    Uses :mod:`pickle` as the stand-in serializer for Mace's checkpoint
    encoding.  Used for checkpoint bandwidth accounting only.
    """
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return len(repr(value).encode("utf-8"))


def to_compact_bytes(value: Any) -> bytes:
    """The compact-bytes encoding: pickle + zlib.

    This is the repository's one wire/checkpoint byte format: the size
    accounting below charges for it, and the deployed-mode transport
    (:mod:`repro.backends.wire`) ships messages — checkpoint payloads
    included — as exactly these bytes inside length-prefixed frames.
    """
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.compress(raw, level=6)


@functools.cache
def _runtime_types() -> tuple[type, ...]:
    """``Message``, ``Address``, ``Transport`` and ``NodeState``, imported
    on first use because their modules import this one."""
    from .address import Address
    from .messages import Message, Transport
    from .state import NodeState

    return Message, Address, Transport, NodeState


class _RuntimeUnpickler(pickle.Unpickler):
    """An unpickler that resolves only the runtime's own value types."""

    def find_class(self, module: str, name: str) -> Any:
        message, address, transport, node_state = _runtime_types()
        # Only a module already imported: naming one runs no import.
        found = getattr(sys.modules.get(module), name, None)
        if found in (message, address, transport) or (
                isinstance(found, type) and issubclass(found, node_state)):
            return found
        raise pickle.UnpicklingError(f"refusing global {module}.{name}")


def from_compact_bytes(blob: bytes) -> Any:
    """Decode a :func:`to_compact_bytes` payload back into the value.

    The bytes may come off a socket, so the pickle may name no global but
    :class:`Message`, :class:`Address`, :class:`Transport` and the
    :class:`NodeState` subclasses; any other raises
    :class:`pickle.UnpicklingError`.
    """
    return _RuntimeUnpickler(io.BytesIO(zlib.decompress(blob))).load()


def compressed_size(value: Any) -> int:
    """Estimate the size of ``value`` after checkpoint compression.

    The paper's checkpoint manager compresses checkpoints with LZW
    (Section 4); we account for compression with zlib, which has comparable
    behaviour on the small, repetitive state dumps involved.
    """
    try:
        return len(to_compact_bytes(value))
    except Exception:
        return len(zlib.compress(repr(value).encode("utf-8"), level=6))


def diff_size(old: Any, new: Any) -> int:
    """Size of transmitting ``new`` given the peer already has ``old``.

    Models the "diff" optimisation of Section 3.1: identical checkpoints
    cost a constant acknowledgement, otherwise we charge the compressed
    size of the new checkpoint (a conservative upper bound on a real delta
    encoding).  :func:`delta_size` is the real delta encoding.
    """
    if unchanged(old, new):
        return 16  # just a "nothing changed" header
    return compressed_size(new)


def delta_fields(old: Any, new: Any) -> dict[str, Any] | None:
    """Top-level dataclass fields of ``new`` that differ from ``old``.

    The structural unit of the delta encoding: two checkpoints of the same
    protocol state type usually differ in a couple of fields (a routing
    table entry, a counter), so shipping only the changed fields keeps
    control-plane bytes flat as the untouched bulk of the state grows.
    Returns ``None`` when the values are not field-wise comparable (not
    dataclasses, or of different types) and the caller must fall back to a
    full transfer.
    """
    if not (dataclasses.is_dataclass(old) and not isinstance(old, type)):
        return None
    if type(old) is not type(new):
        return None
    return {f.name: getattr(new, f.name) for f in dataclasses.fields(new)
            if not unchanged(getattr(old, f.name), getattr(new, f.name))}


def delta_size(old: Any, new: Any) -> int:
    """Bytes to ship ``new`` to a peer that already holds ``old`` under
    delta encoding.

    Identical values cost the constant acknowledgement header; otherwise
    the charge is a header plus the compressed changed-field subset,
    capped at the full compressed size (a pathological delta never costs
    more than resending everything).
    """
    if unchanged(old, new):
        return 16
    changed = delta_fields(old, new)
    if changed is None:
        return compressed_size(new)
    return min(16 + compressed_size(changed), compressed_size(new))
