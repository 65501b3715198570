"""Structured execution tracing: JSONL span/event records (schema v1).

A :class:`Tracer` receives typed records from every instrumented layer and
forwards them to a sink — a JSONL file (:class:`JsonlTracer`) or an
in-memory list (:class:`MemoryTracer`).  The live runtime holds
``tracer = None`` by default and every instrumentation site guards with
``if tracer is not None``, so a run without tracing pays only attribute
checks (the disabled path, measured by the ``obs.tracer_overhead_pct``
probe of ``benchmarks/e2e``).

Trace JSONL schema v1
---------------------
One JSON object per line.  The first record is always the run header::

    {"kind": "meta", "v": 1, "system": ..., "scenario": ..., "mode": ...,
     "seed": ..., "nodes": ...}

Every other record has ``kind`` and ``t`` (simulated seconds); everything
else is kind-specific:

``event``
    An event the runtime decided about: ``node``, ``etype`` (``msg`` /
    ``timer`` / ``app`` / ``reset`` / ``connerr``), ``outcome``
    (``executed`` / ``filtered`` / ``filtered+reset`` / ``delayed`` /
    ``blocked-by-isc`` / ``reset``), ``desc``, ``eid`` (per-run execution
    sequence number, only for executed outcomes) and ``msg`` (the message
    id for deliveries — the causal edge back to its ``send``).
``send`` / ``deliver`` / ``drop``
    Message lifecycle keyed by the stable ``msg`` id assigned at send time:
    ``send`` carries ``node`` (source), ``dst``, ``mtype``, ``transport``,
    ``control`` and ``bytes``; ``deliver`` carries ``node`` (destination),
    ``src`` and ``mtype``; ``drop`` adds ``reason`` (``unreachable`` /
    ``loss`` / ``peer-down`` / ``stale-connection``).
``checkpoint``
    ``node``, ``cn`` (checkpoint number), ``forced``.
``snapshot``
    A completed neighbourhood gather: ``node``, ``cn``, ``members``,
    ``missing``, ``complete``.
``mc_run``
    One model-checker run: ``node``, ``engine``, ``states``,
    ``transitions``, ``depth``, ``violations``, ``wall`` (wall-clock
    seconds — the only nondeterministic field family, see below).
``filter_install`` / ``filter_trigger``
    Steering: ``node``, ``filter`` (human description) plus ``property``
    and ``path_len`` on install, ``action`` and ``desc`` on trigger.
``violation``
    ``node``, ``property``, ``severity``, ``vkind`` (``safety`` /
    ``liveness`` / ``predicted``), ``detail`` and (live episodes only)
    ``digest`` — the process-stable sha1 state digest.
``fault``
    Nemesis activity: ``fault``, ``action`` (``inject`` / ``heal`` /
    ``skip``), ``detail``.
``run_end``
    ``events`` executed and final ``t``.

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

#: Every record kind the schema defines (kept in sync with the docstring
#: above and validated by the schema-stability tests).
RECORD_KINDS = (
    "meta",
    "event",
    "send",
    "deliver",
    "drop",
    "checkpoint",
    "snapshot",
    "mc_run",
    "filter_install",
    "filter_trigger",
    "violation",
    "fault",
    "run_end",
)


class Tracer:
    """Builds schema-v1 records and hands them to :meth:`emit`.

    Subclasses implement :meth:`emit`.
    """

    def emit(self, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the sink; safe to call more than once."""

    # ------------------------------------------------------------- helpers

    def meta(
        self,
        *,
        system: str,
        scenario: Optional[str],
        mode: str,
        seed: int,
        nodes: int,
        backend: str = "sim",
    ) -> None:
        record = {
            "kind": "meta",
            "v": SCHEMA_VERSION,
            "system": system,
            "scenario": scenario,
            "mode": mode,
            "seed": seed,
            "nodes": nodes,
        }
        # Traces written before execution backends existed have no key;
        # sim runs keep matching them byte for byte.
        if backend != "sim":
            record["backend"] = backend
        self.emit(record)

    def event(
        self,
        t: float,
        node: Any,
        etype: str,
        outcome: str,
        desc: str,
        *,
        eid: Optional[int] = None,
        msg: Optional[int] = None,
    ) -> None:
        record: dict[str, Any] = {
            "kind": "event",
            "t": t,
            "node": str(node),
            "etype": etype,
            "outcome": outcome,
            "desc": desc,
        }
        if eid is not None:
            record["eid"] = eid
        if msg is not None:
            record["msg"] = msg
        self.emit(record)

    def send(
        self,
        t: float,
        node: Any,
        msg: int,
        mtype: str,
        dst: Any,
        transport: str,
        control: bool,
        size: int,
    ) -> None:
        self.emit(
            {
                "kind": "send",
                "t": t,
                "node": str(node),
                "msg": msg,
                "mtype": mtype,
                "dst": str(dst),
                "transport": transport,
                "control": control,
                "bytes": size,
            }
        )

    def deliver(self, t: float, node: Any, msg: int, mtype: str, src: Any) -> None:
        self.emit(
            {
                "kind": "deliver",
                "t": t,
                "node": str(node),
                "msg": msg,
                "mtype": mtype,
                "src": str(src),
            }
        )

    def drop(self, t: float, msg: int, mtype: str, reason: str) -> None:
        self.emit(
            {"kind": "drop", "t": t, "msg": msg, "mtype": mtype, "reason": reason}
        )

    def checkpoint(self, t: float, node: Any, cn: int, *, forced: bool = False) -> None:
        self.emit(
            {
                "kind": "checkpoint",
                "t": t,
                "node": str(node),
                "cn": cn,
                "forced": forced,
            }
        )

    def snapshot(
        self,
        t: float,
        node: Any,
        cn: int,
        members: int,
        missing: int,
    ) -> None:
        self.emit(
            {
                "kind": "snapshot",
                "t": t,
                "node": str(node),
                "cn": cn,
                "members": members,
                "missing": missing,
                "complete": missing == 0,
            }
        )

    def mc_run(
        self,
        t: float,
        node: Any,
        *,
        engine: str,
        states: int,
        transitions: int,
        depth: int,
        violations: int,
        wall: float,
    ) -> None:
        self.emit(
            {
                "kind": "mc_run",
                "t": t,
                "node": str(node),
                "engine": engine,
                "states": states,
                "transitions": transitions,
                "depth": depth,
                "violations": violations,
                "wall": wall,
            }
        )

    def filter_install(
        self,
        t: float,
        node: Any,
        filter_desc: str,
        *,
        property_id: str,
        path_len: int,
    ) -> None:
        self.emit(
            {
                "kind": "filter_install",
                "t": t,
                "node": str(node),
                "filter": filter_desc,
                "property": property_id,
                "path_len": path_len,
            }
        )

    def filter_trigger(
        self, t: float, node: Any, filter_desc: str, action: str, desc: str
    ) -> None:
        self.emit(
            {
                "kind": "filter_trigger",
                "t": t,
                "node": str(node),
                "filter": filter_desc,
                "action": action,
                "desc": desc,
            }
        )

    def violation(
        self,
        t: float,
        node: Any,
        property_id: str,
        severity: str,
        vkind: str,
        detail: str,
        *,
        digest: Optional[str] = None,
    ) -> None:
        record: dict[str, Any] = {
            "kind": "violation",
            "t": t,
            "node": None if node is None else str(node),
            "property": property_id,
            "severity": severity,
            "vkind": vkind,
            "detail": detail,
        }
        if digest is not None:
            record["digest"] = digest
        self.emit(record)

    def fault(self, t: float, fault: str, action: str, detail: dict) -> None:
        self.emit(
            {
                "kind": "fault",
                "t": t,
                "fault": fault,
                "action": action,
                "detail": dict(detail),
            }
        )

    def run_end(self, t: float, events: int) -> None:
        self.emit({"kind": "run_end", "t": t, "events": events})


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
