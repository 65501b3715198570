"""Base class for protocol node state.

Protocol state must be (a) copyable, because the model checker and the
immediate safety check speculatively execute handlers on copies, (b)
hashable in a canonical way, because explored-state sets store state hashes,
and (c) size-measurable, for checkpoint bandwidth accounting.

:meth:`NodeState.clone` copies *structure*: ``dict``, ``list``, ``set`` and
``frozenset`` values are rebuilt recursively (sets by re-inserting their
elements in iteration order), a tuple is rebuilt only when something inside
it had to be copied, and ``int``, ``float``, ``str``, ``bytes``, ``bool``,
``None`` and ``Address`` are shared with the original.  A value of any other
type — a plugin system's nested object — goes through ``copy.deepcopy``.
The clone pickles to the bytes a ``copy.deepcopy`` of the state pickles to,
set iteration order included (checkpoint sizes are pickle sizes), unless one
state references a container twice: such aliasing is not preserved.

Two points clone: capture (``CrystalBallController._take_checkpoint``) and
a handler's input (``TransitionSystem.step``).  Responses, transfer caches
and snapshot start states share the captured state, which nothing writes.

Rule: no cache attribute on a ``NodeState``, an ``Address``, a ``Message``
or anything else reachable from a state's fields or sent in a frame, unless
its pickle leaves it out (``Message.__reduce__`` does).  ``estimate_size``
and ``encode_frame`` pickle ``__dict__``, so a cached value there moves
checkpoint, search-memory and wire byte counts (``Address.frozen()`` still
grows an address from 75 to 102 bytes).  Caches of a state's identity live
on ``NodeLocal`` and ``GlobalState``.  A search's intern table
(``repro.mc.transition.Memo``), not the ``NodeLocal``, holds a state's
pickle bytes, so nothing new rides in a sharded-engine handoff.
"""

from __future__ import annotations

import copy
import dataclasses
from operator import is_
from typing import Any

from .address import Address
from .serialization import compressed_size, estimate_size, freeze, unchanged

#: Types a clone shares with its original.
_SHARED = frozenset({int, float, str, bytes, bool, type(None), Address})


def _copy(value: Any) -> Any:
    """An independent copy of a value whose type is not in ``_SHARED``.
    Every model-checker transition comes through here, so leaves are tested
    inline and a call is spent only on containers."""
    kind = type(value)
    if kind is dict:
        return {(key if type(key) in _SHARED else _copy(key)):
                (item if type(item) in _SHARED else _copy(item))
                for key, item in value.items()}
    if kind is list or kind is tuple or kind is set or kind is frozenset:
        items = [item if type(item) in _SHARED else _copy(item)
                 for item in value]
        if kind is list:
            return items
        if kind is tuple and all(map(is_, items, value)):
            return value
        # ``set(items)``, never ``set(value)``: that copies the hash table,
        # and a table that saw deletions iterates (so pickles) differently
        # from the re-inserted one ``copy.deepcopy`` builds.
        return kind(items)
    return copy.deepcopy(value)


@dataclasses.dataclass
class NodeState:
    """Base class for the local state of one protocol instance.

    Subclasses are ordinary (mutable) dataclasses; handlers mutate them in
    place.  The runtime and the model checker use :meth:`clone` whenever they
    need an independent copy.
    """

    def clone(self) -> "NodeState":
        """Independent copy of this state (checkpointing, speculative
        execution); the module docstring says what is copied and shared."""
        twin = object.__new__(type(self))
        twin.__dict__ = {
            name: value if type(value) in _SHARED else _copy(value)
            for name, value in self.__dict__.items()}
        return twin

    def signature(self) -> tuple:
        """Canonical hashable representation of this state."""
        fields = tuple(
            (f.name, freeze(getattr(self, f.name)))
            for f in dataclasses.fields(self)
        )
        return (type(self).__name__,) + fields

    def signature_after(self, parent: "NodeState", parent_signature: tuple) -> tuple:
        """:meth:`signature`, given that of ``parent``, the state this one
        was derived from: the ``(name, frozen)`` entry of every field left
        unchanged is reused, the rest are re-frozen."""
        if type(self) is not type(parent):
            return self.signature()
        was, now = parent.__dict__, self.__dict__
        return parent_signature[:1] + tuple(
            entry if unchanged(was[entry[0]], now[entry[0]])
            else (entry[0], freeze(now[entry[0]]))
            for entry in parent_signature[1:])

    def state_hash(self) -> int:
        """Deterministic hash of :meth:`signature`."""
        return hash(self.signature())

    def size_bytes(self) -> int:
        """Approximate serialized size of this state."""
        return estimate_size(self)

    def compressed_bytes(self) -> int:
        """Approximate size after checkpoint compression (Section 4)."""
        return compressed_size(self)
