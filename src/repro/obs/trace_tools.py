"""Trace analysis over schema-v1 records.

Records are the dicts produced by :class:`repro.obs.tracer.JsonlTracer`
(read back with :func:`read_trace`) or collected in memory by
:class:`repro.obs.tracer.MemoryTracer`.  :func:`summarize_records`,
:func:`filter_records`, :func:`validate_trace`, :func:`strip_wall_fields`
and :func:`causal_chain` operate on those.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from .tracer import FIELD_SPECS, RECORD_KINDS, SCHEMA_VERSION


@dataclass
class TraceSummary:
    """Aggregated view of a trace."""

    total_events: int
    by_kind: dict[str, int]
    by_node: dict[str, int]
    first_time: float
    last_time: float

    def duration(self) -> float:
        return max(0.0, self.last_time - self.first_time)


Record = dict[str, Any]


def read_trace(path: Union[str, Any]) -> list[Record]:
    """Load a JSONL trace file into a list of record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number}: expected a JSON object"
                )
            records.append(record)
    return records


def validate_trace(records: Sequence[Record]) -> list[str]:
    """Check a record list against schema v1 — the header, then every record
    against its row of ``tracer.RECORD_FIELDS``; returns problem strings."""
    problems = []
    if not records:
        return ["trace is empty"]
    head = records[0]
    if head.get("kind") != "meta":
        problems.append("first record is not a 'meta' header")
    elif head.get("v") != SCHEMA_VERSION:
        problems.append(
            f"unsupported schema version {head.get('v')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    for index, record in enumerate(records):
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            problems.append(f"record {index}: unknown kind {kind!r}")
            continue
        if index > 0 and kind == "meta":
            problems.append(f"record {index}: duplicate 'meta' header")
        # ``v`` is the header check's: a missing one is reported above.
        stamp = ("v", False) if kind == "meta" else ("t", True)
        known = {"kind"}
        for name, required in (stamp, *FIELD_SPECS[kind]):
            known.add(name)
            if required and name not in record:
                problems.append(f"record {index} ({kind}): missing {name!r}")
        for name in record:
            if name not in known:
                problems.append(f"record {index} ({kind}): unknown field {name!r}")
    return problems


def summarize_records(records: Sequence[Record]) -> TraceSummary:
    """Aggregate a JSONL trace into per-kind and per-node counts."""
    body = [r for r in records if r.get("kind") != "meta"]
    if not body:
        return TraceSummary(
            total_events=0, by_kind={}, by_node={}, first_time=0.0, last_time=0.0
        )
    by_kind = Counter(r["kind"] for r in body)
    by_node = Counter(str(r["node"]) for r in body if r.get("node") is not None)
    return TraceSummary(
        total_events=len(body),
        by_kind=dict(by_kind),
        by_node=dict(by_node),
        first_time=body[0].get("t", 0.0),
        last_time=body[-1].get("t", 0.0),
    )


def filter_records(
    records: Iterable[Record],
    *,
    node: Optional[str] = None,
    kind: Optional[str] = None,
    contains: Optional[str] = None,
) -> list[Record]:
    """Select JSONL records by node, record kind and/or substring match."""
    selected = []
    for record in records:
        if record.get("kind") == "meta":
            continue
        if node is not None and str(record.get("node")) != node:
            continue
        if kind is not None and record.get("kind") != kind:
            continue
        if contains is not None:
            haystack = json.dumps(record, separators=(",", ":"))
            if contains not in haystack:
                continue
        selected.append(record)
    return selected


def format_records(records: Sequence[Record], *, limit: int = 50) -> str:
    """Render JSONL records as aligned text lines."""
    lines = []
    for record in records[:limit]:
        kind = record.get("kind", "?")
        if kind == "meta":
            lines.append(f"meta: schema v{record.get('v')} {record}")
            continue
        node = record.get("node")
        detail = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "t", "node")
        }
        lines.append(
            f"{record.get('t', 0.0):10.3f}s  "
            f"{'-' if node is None else str(node):>8}  "
            f"{kind:<16} {json.dumps(detail, separators=(',', ':'))}"
        )
    if len(records) > limit:
        lines.append(f"... ({len(records) - limit} more records)")
    return "\n".join(lines)


def strip_wall_fields(records: Iterable[Record]) -> list[Record]:
    """Copy records with every ``wall`` field removed.

    ``wall`` fields carry wall-clock durations — the only nondeterministic
    data in a trace.  Strip them before comparing traces across runs.
    """
    return [
        {key: value for key, value in record.items() if key != "wall"}
        for record in records
    ]


def causal_chain(records: Sequence[Record], node: str) -> list[Record]:
    """Explain why steering fired on ``node``: the causal record chain.

    Walks backward from the node's last steering activity —
    ``filter_trigger`` if one exists, else the last ``filter_install`` —
    through the install, the model-checker run that predicted the
    violation, the neighbourhood snapshot that fed it, the checkpoint
    gather, the predicted-violation records themselves, and any fault
    injections that preceded the chain.  Returns the chain in
    chronological order; empty if steering never touched the node.
    """
    node = str(node)

    def last(kind: str, *, before: Optional[float] = None, **match: Any):
        found = None
        for record in records:
            if record.get("kind") != kind:
                continue
            if before is not None and record.get("t", 0.0) > before:
                continue
            if any(record.get(k) != v for k, v in match.items()):
                continue
            found = record
        return found

    trigger = last("filter_trigger", node=node)
    anchor_t = trigger.get("t") if trigger else None
    install = last("filter_install", node=node, before=anchor_t)
    if install is None and trigger is None:
        return []

    chain: list[Record] = []
    install_t = install.get("t") if install else anchor_t

    mc = last("mc_run", node=node, before=install_t)
    snap = last("snapshot", node=node, before=mc.get("t") if mc else install_t)
    ckpt = last(
        "checkpoint", node=node, before=snap.get("t") if snap else install_t
    )
    for record in (ckpt, snap, mc):
        if record is not None:
            chain.append(record)

    # Predicted violations surfaced by that model-checker run (same node,
    # same tick — earlier predictions are history, not this decision).
    violation_t = mc.get("t") if mc is not None else install_t
    if violation_t is not None:
        for record in records:
            if (
                record.get("kind") == "violation"
                and record.get("vkind") == "predicted"
                and str(record.get("node")) == node
                and record.get("t", 0.0) == violation_t
            ):
                chain.append(record)

    # Fault activity that preceded the steering decision.
    fault_cutoff = anchor_t if anchor_t is not None else install_t
    for record in records:
        if record.get("kind") != "fault":
            continue
        if fault_cutoff is not None and record.get("t", 0.0) > fault_cutoff:
            continue
        chain.append(record)

    if install is not None:
        chain.append(install)
    if trigger is not None:
        chain.append(trigger)
    chain.sort(key=lambda r: r.get("t", 0.0))
    return chain
