"""Trace schema v1: every record kind round-trips through JSON unchanged."""

import json

import pytest

from repro.obs import (
    RECORD_KINDS,
    SCHEMA_VERSION,
    JsonlTracer,
    MemoryTracer,
    Tracer,
    validate_trace,
)
from repro.obs.trace_tools import read_trace
from repro.obs.tracer import RECORD_FIELDS


def emit_one_of_each(tracer):
    """One record of every kind, every optional field set; returns the
    expected kind sequence."""
    tracer.record("meta", system="randtree", scenario=None, mode="steering",
                  seed=7, nodes=5, backend="tcp")
    tracer.record("event", 1.0, node="1:5000", etype="msg",
                  outcome="executed", desc="deliver Ping", eid=0, msg=42)
    tracer.record("send", 1.0, node="1:5000", msg=42, mtype="ping",
                  dst="2:5000", transport="udp", control=False, bytes=64)
    tracer.record("deliver", 1.1, node="2:5000", msg=42, mtype="ping",
                  src="1:5000")
    tracer.record("drop", 1.2, msg=43, mtype="pong", reason="loss")
    tracer.record("checkpoint", 2.0, node="1:5000", cn=3, forced=True)
    tracer.record("snapshot", 2.5, node="1:5000", cn=3, members=4, missing=1,
                  complete=False)
    tracer.record("mc_run", 3.0, node="1:5000", engine="serial", states=100,
                  transitions=250, depth=6, violations=2, wall=0.125)
    tracer.record("filter_install", 3.0, node="1:5000",
                  filter="filter#1: delay timer", property="randtree.p",
                  path_len=2)
    tracer.record("filter_trigger", 4.0, node="1:5000",
                  filter="filter#1: delay timer", action="delay",
                  desc="timer join_retry")
    tracer.record("violation", 3.0, node="1:5000", property="randtree.p",
                  severity="critical", vkind="predicted",
                  detail="root is a child", digest="abc123")
    tracer.record("fault", 5.0, fault="partition", action="inject",
                  detail={"links_cut": 6})
    tracer.record("run_end", 10.0, events=1234)
    return ["meta", "event", "send", "deliver", "drop", "checkpoint",
            "snapshot", "mc_run", "filter_install", "filter_trigger",
            "violation", "fault", "run_end"]


def test_every_record_kind_has_a_typed_helper():
    """One record of every kind in ``RECORD_FIELDS``, each laid out in its
    row's order — the table is the only "helper" a kind has."""
    assert RECORD_KINDS == tuple(RECORD_FIELDS)
    tracer = MemoryTracer()
    kinds = emit_one_of_each(tracer)
    assert sorted(kinds) == sorted(RECORD_KINDS)
    assert [record["kind"] for record in tracer.records] == kinds
    for record in tracer.records:
        row = [name.rstrip("?") for name in RECORD_FIELDS[record["kind"]]]
        stamp = "v" if record["kind"] == "meta" else "t"
        assert list(record) == ["kind", stamp, *row]


def test_schema_round_trips_through_json(tmp_path):
    memory = MemoryTracer()
    emit_one_of_each(memory)
    path = tmp_path / "t.jsonl"
    jsonl = JsonlTracer(path)
    for record in memory.records:
        jsonl.emit(record)
    jsonl.close()
    assert jsonl.records_written == len(memory.records)
    assert read_trace(path) == memory.records


def test_emitted_records_satisfy_schema_v1():
    tracer = MemoryTracer()
    emit_one_of_each(tracer)
    assert validate_trace(tracer.records) == []
    meta = tracer.records[0]
    assert meta["v"] == SCHEMA_VERSION
    for record in tracer.records[1:]:
        assert "t" in record


def test_record_payload_fields_are_stable():
    tracer = MemoryTracer()
    emit_one_of_each(tracer)
    by_kind = {record["kind"]: record for record in tracer.records}
    assert by_kind["send"] == {
        "kind": "send", "t": 1.0, "node": "1:5000", "msg": 42,
        "mtype": "ping", "dst": "2:5000", "transport": "udp",
        "control": False, "bytes": 64,
    }
    assert by_kind["deliver"]["msg"] == by_kind["send"]["msg"]
    assert by_kind["snapshot"]["complete"] is False  # one member missing
    assert by_kind["mc_run"]["wall"] == 0.125
    assert by_kind["filter_install"]["property"] == "randtree.p"
    assert by_kind["violation"]["digest"] == "abc123"


def test_jsonl_tracer_writes_compact_lines_and_close_is_idempotent(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = JsonlTracer(path)
    tracer.record("event", 1.0, node="n", etype="msg", outcome="executed",
                  desc="x")
    tracer.close()
    tracer.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert ": " not in lines[0]  # compact separators
    assert json.loads(lines[0])["kind"] == "event"


def test_record_rejects_a_missing_or_an_unknown_field():
    tracer = MemoryTracer()
    with pytest.raises(TypeError, match="drop record: missing 'reason'"):
        tracer.record("drop", 1.0, msg=43, mtype="pong")
    with pytest.raises(TypeError, match="drop record: unknown field 'node'"):
        tracer.record("drop", 1.0, msg=43, mtype="pong", reason="loss",
                      node="1:5000")
    with pytest.raises(TypeError, match="drop record: missing 't'"):
        tracer.record("drop", msg=43, mtype="pong", reason="loss")
    assert tracer.records == []


def test_record_writes_addresses_as_text_and_omits_unset_optionals():
    from repro.runtime import Address

    tracer = MemoryTracer()
    tracer.record("violation", 2.0, node=None, property="p", severity="error",
                  vkind="liveness", detail="late", digest=None)
    tracer.record("deliver", 2.5, node=Address(2), msg=7, mtype="ping",
                  src=Address(1))
    assert tracer.records == [
        {"kind": "violation", "t": 2.0, "node": None, "property": "p",
         "severity": "error", "vkind": "liveness", "detail": "late"},
        {"kind": "deliver", "t": 2.5, "node": "2:5000", "msg": 7,
         "mtype": "ping", "src": "1:5000"},
    ]


def test_base_tracer_requires_emit():
    with pytest.raises(NotImplementedError):
        Tracer().record("event", 0.0, node="n", etype="msg",
                        outcome="executed", desc="x")
