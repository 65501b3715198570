"""Structured execution tracing: JSONL span/event records (schema v1).

A :class:`Tracer` builds records from :data:`RECORD_FIELDS` — the schema,
one row per record kind — and hands them to a sink: a JSONL file
(:class:`JsonlTracer`) or an in-memory list (:class:`MemoryTracer`).  The
live runtime holds ``tracer = None`` by default and every instrumentation
site guards with ``if tracer is not None``, so a run without tracing pays
only attribute checks (the disabled path, measured by the
``obs.tracer_overhead_pct`` probe of ``benchmarks/e2e``).

One JSON object per line.  The first record is the run header, ``meta``,
which carries ``v`` (:data:`SCHEMA_VERSION`) where every other record
carries ``t`` (simulated seconds); then come the fields of the kind's row
in :data:`RECORD_FIELDS`, in row order.  What the table cannot say:

``event``
    An event the runtime decided about.  ``etype`` is ``msg`` / ``timer``
    / ``app`` / ``reset`` / ``connerr``; ``outcome`` is ``executed`` /
    ``filtered`` / ``filtered+reset`` / ``delayed`` / ``blocked-by-isc`` /
    ``reset``.  ``eid`` (per-run execution sequence number) is present
    only for executed outcomes, ``msg`` only for deliveries — the causal
    edge back to the ``send``.
``send`` / ``deliver`` / ``drop``
    Message lifecycle keyed by the stable ``msg`` id assigned at send
    time; ``node`` is the source of a ``send`` and the destination of a
    ``deliver``.  A ``drop`` ``reason`` is ``unreachable`` / ``loss`` /
    ``peer-down`` / ``stale-connection``.
``mc_run``
    ``wall`` is wall-clock seconds — the only nondeterministic field
    family, see below.
``violation``
    ``vkind`` is ``safety`` / ``liveness`` / ``predicted``; ``node`` is
    ``null`` for a system-wide property; ``digest``, the process-stable
    sha1 state digest, is present on live episodes only.
``fault``
    Nemesis activity; ``action`` is ``inject`` / ``heal`` / ``skip``.
``meta``
    ``backend`` is present unless it is ``sim``: traces written before
    execution backends existed have no key, and sim runs keep matching
    them byte for byte.

Determinism: with a fixed seed every field of every record reproduces
bit-for-bit across runs and ``PYTHONHASHSEED`` values **except** fields
named ``wall``, which carry wall-clock durations.  Consumers comparing
traces must strip ``wall`` (``repro.obs.trace_tools.strip_wall_fields``).
"""

from __future__ import annotations

import json
from typing import Any, Optional, Union

#: Trace schema version emitted in the ``meta`` header record.
SCHEMA_VERSION = 1

#: The schema: per record kind, the fields after ``kind`` and ``t`` (``v``
#: on ``meta``) in record order; a trailing ``?`` marks a field left out
#: when its value is ``None``.  :meth:`Tracer.record` builds from this table
#: and ``trace_tools.validate_trace`` checks against it, so a new kind or
#: field is one row here plus the ``record`` call that emits it.
RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    "meta": ("system", "scenario", "mode", "seed", "nodes", "backend?"),
    "event": ("node", "etype", "outcome", "desc", "eid?", "msg?"),
    "send": ("node", "msg", "mtype", "dst", "transport", "control", "bytes"),
    "deliver": ("node", "msg", "mtype", "src"),
    "drop": ("msg", "mtype", "reason"),
    "checkpoint": ("node", "cn", "forced"),
    "snapshot": ("node", "cn", "members", "missing", "complete"),
    "mc_run": (
        "node", "engine", "states", "transitions", "depth", "violations", "wall"
    ),
    "filter_install": ("node", "filter", "property", "path_len"),
    "filter_trigger": ("node", "filter", "action", "desc"),
    "violation": ("node", "property", "severity", "vkind", "detail", "digest?"),
    "fault": ("fault", "action", "detail"),
    "run_end": ("events",),
}

#: Every record kind the schema defines.
RECORD_KINDS = tuple(RECORD_FIELDS)

#: :data:`RECORD_FIELDS` parsed once: ``(field, required)`` pairs per kind.
FIELD_SPECS = {
    kind: tuple((name.rstrip("?"), not name.endswith("?")) for name in row)
    for kind, row in RECORD_FIELDS.items()
}

#: Fields holding a node address, written through ``str``.
ADDRESS_FIELDS = frozenset({"node", "dst", "src"})


class Tracer:
    """Builds schema-v1 records and hands them to :meth:`emit`.

    Subclasses implement :meth:`emit`.
    """

    def emit(self, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the sink; safe to call more than once."""

    def record(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Emit one ``kind`` record at simulated time ``t`` (``meta`` takes
        none), its ``fields`` laid out in :data:`RECORD_FIELDS` order.

        Raises ``TypeError`` for a missing required or an unknown field.
        """
        if kind == "meta":
            record: dict[str, Any] = {"kind": kind, "v": SCHEMA_VERSION}
        elif t is None:
            raise TypeError(f"{kind} record: missing 't'")
        else:
            record = {"kind": kind, "t": t}
        for name, required in FIELD_SPECS[kind]:
            try:
                value = fields.pop(name)
            except KeyError:
                if required:
                    raise TypeError(f"{kind} record: missing {name!r}") from None
                continue
            if value is None:
                if not required:
                    continue
            elif name in ADDRESS_FIELDS:
                value = str(value)
            record[name] = value
        if fields:
            raise TypeError(f"{kind} record: unknown field {min(fields)!r}")
        self.emit(record)


class MemoryTracer(Tracer):
    """Buffers every record in :attr:`records` (tests and tooling)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)


class JsonlTracer(Tracer):
    """Streams records to a JSONL file as they are emitted."""

    def __init__(self, path: Union[str, Any]) -> None:
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self.records_written = 0

    def emit(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
