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


def emit_one_of_each(tracer):
    """Drive every typed helper once; returns the expected kind sequence."""
    tracer.meta(system="randtree", scenario=None, mode="steering", seed=7,
                nodes=5)
    tracer.event(1.0, "1:5000", "msg", "executed", "deliver Ping", eid=0,
                 msg=42)
    tracer.send(1.0, "1:5000", 42, "ping", "2:5000", "udp", False, 64)
    tracer.deliver(1.1, "2:5000", 42, "ping", "1:5000")
    tracer.drop(1.2, 43, "pong", "loss")
    tracer.checkpoint(2.0, "1:5000", 3, forced=True)
    tracer.snapshot(2.5, "1:5000", 3, 4, 1)
    tracer.mc_run(3.0, "1:5000", engine="serial", states=100, transitions=250,
                  depth=6, violations=2, wall=0.125)
    tracer.filter_install(3.0, "1:5000", "filter#1: delay timer",
                          property_id="randtree.p", path_len=2)
    tracer.filter_trigger(4.0, "1:5000", "filter#1: delay timer", "delay",
                          "timer join_retry")
    tracer.violation(3.0, "1:5000", "randtree.p", "critical", "predicted",
                     "root is a child", digest="abc123")
    tracer.fault(5.0, "partition", "inject", {"links_cut": 6})
    tracer.run_end(10.0, 1234)
    return ["meta", "event", "send", "deliver", "drop", "checkpoint",
            "snapshot", "mc_run", "filter_install", "filter_trigger",
            "violation", "fault", "run_end"]


def test_every_record_kind_has_a_typed_helper():
    tracer = MemoryTracer()
    kinds = emit_one_of_each(tracer)
    assert sorted(kinds) == sorted(RECORD_KINDS)
    assert [record["kind"] for record in tracer.records] == kinds


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
    tracer.event(1.0, "n", "msg", "executed", "x")
    tracer.close()
    tracer.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert ": " not in lines[0]  # compact separators
    assert json.loads(lines[0])["kind"] == "event"


def test_base_tracer_requires_emit():
    with pytest.raises(NotImplementedError):
        Tracer().event(0.0, "n", "msg", "executed", "x")
