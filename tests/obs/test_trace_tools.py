"""Trace analysis tools: validation, filtering, summaries, causal chains."""

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    MemoryTracer,
    ObsContext,
    causal_chain,
    filter_records,
    format_records,
    strip_wall_fields,
    summarize_records,
    validate_trace,
)
from repro.obs.trace_tools import read_trace
from repro.runtime import NetworkModel, Simulator, make_addresses
from tests.runtime.test_simulator import EchoProtocol


def meta():
    return {"kind": "meta", "v": SCHEMA_VERSION, "system": "randtree",
            "scenario": None, "mode": "steering", "seed": 7, "nodes": 3}


STEERING_TRACE = [
    meta(),
    {"kind": "fault", "t": 5.0, "fault": "partition", "action": "inject",
     "detail": {"links_cut": 2}},
    {"kind": "checkpoint", "t": 9.0, "node": "1:5000", "cn": 2,
     "forced": False},
    {"kind": "snapshot", "t": 10.0, "node": "1:5000", "cn": 2, "members": 3,
     "missing": 0, "complete": True},
    {"kind": "mc_run", "t": 10.0, "node": "1:5000", "engine": "serial",
     "states": 50, "transitions": 80, "depth": 5, "violations": 1,
     "wall": 0.25},
    {"kind": "violation", "t": 10.0, "node": "1:5000", "property": "p",
     "severity": "critical", "vkind": "predicted", "detail": "bad"},
    {"kind": "violation", "t": 8.0, "node": "1:5000", "property": "p",
     "severity": "critical", "vkind": "predicted", "detail": "older run"},
    {"kind": "filter_install", "t": 10.0, "node": "1:5000",
     "filter": "filter#1", "property": "p", "path_len": 2},
    {"kind": "filter_trigger", "t": 12.0, "node": "1:5000",
     "filter": "filter#1", "action": "delay", "desc": "timer x"},
    {"kind": "run_end", "t": 20.0, "events": 99},
]


# ------------------------------------------------------------- validation


def test_validate_accepts_a_well_formed_trace():
    assert validate_trace(STEERING_TRACE) == []


def test_validate_flags_structural_problems():
    assert validate_trace([]) == ["trace is empty"]
    problems = validate_trace([{"kind": "event", "t": 1.0}])
    assert any("not a 'meta' header" in p for p in problems)
    bad_version = dict(meta(), v=99)
    problems = validate_trace([bad_version])
    assert any("unsupported schema version" in p for p in problems)
    problems = validate_trace([meta(), {"kind": "wat", "t": 1.0}])
    assert any("unknown kind 'wat'" in p for p in problems)
    problems = validate_trace([meta(), {"kind": "event"}])
    assert any("missing 't'" in p for p in problems)
    problems = validate_trace([meta(), meta()])
    assert any("duplicate 'meta'" in p for p in problems)


def test_validate_names_the_record_and_the_field():
    """One malformed record, one problem that says where and what."""
    send = {"kind": "send", "t": 1.0, "node": "1:5000", "msg": 4,
            "mtype": "ping", "dst": "2:5000", "transport": "udp",
            "control": False, "bytes": 64}
    assert validate_trace([meta(), send]) == []
    without_dst = {k: v for k, v in send.items() if k != "dst"}
    assert validate_trace([meta(), without_dst]) == [
        "record 1 (send): missing 'dst'"]
    assert validate_trace([meta(), dict(send, hops=3)]) == [
        "record 1 (send): unknown field 'hops'"]
    assert validate_trace([send, *STEERING_TRACE[1:]]) == [
        "first record is not a 'meta' header"]
    assert validate_trace([meta(), dict(send, kind="sent")]) == [
        "record 1: unknown kind 'sent'"]
    # Optional fields may be absent; what the old fixture carried may not.
    event = {"kind": "event", "t": 1.0, "node": "1:5000", "etype": "timer",
             "outcome": "delayed", "desc": "timer x"}
    assert validate_trace([meta(), event, dict(event, eid=3, msg=4)]) == []
    assert validate_trace([meta(), dict(STEERING_TRACE[1], node=None)]) == [
        "record 1 (fault): unknown field 'node'"]


def test_read_trace_reports_bad_lines_with_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "meta"}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        read_trace(path)
    path.write_text('[1, 2]\n')
    with pytest.raises(ValueError, match="expected a JSON object"):
        read_trace(path)


# ------------------------------------------------ filtering and summaries


def test_summarize_records_skips_meta_and_counts_kinds():
    summary = summarize_records(STEERING_TRACE)
    assert summary.total_events == len(STEERING_TRACE) - 1
    assert summary.by_kind["violation"] == 2
    assert "None" not in summary.by_node  # nodeless records excluded
    assert summary.duration() == 15.0


def test_filter_records_by_node_kind_and_substring():
    assert all(r["node"] == "1:5000"
               for r in filter_records(STEERING_TRACE, node="1:5000"))
    assert [r["kind"] for r in filter_records(STEERING_TRACE,
                                              kind="mc_run")] == ["mc_run"]
    hits = filter_records(STEERING_TRACE, contains="links_cut")
    assert [r["kind"] for r in hits] == ["fault"]
    # Meta never appears in filtered output.
    assert all(r["kind"] != "meta" for r in filter_records(STEERING_TRACE))


def test_format_records_renders_aligned_lines_with_limit():
    text = format_records(STEERING_TRACE[1:], limit=3)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[-1].startswith("... (")
    assert "fault" in lines[0]


def test_strip_wall_fields_removes_only_wall():
    stripped = strip_wall_fields(STEERING_TRACE)
    mc = next(r for r in stripped if r["kind"] == "mc_run")
    assert "wall" not in mc
    assert mc["states"] == 50
    # Original untouched.
    assert "wall" in STEERING_TRACE[4]


# ----------------------------------------------------------- causal chain


def test_causal_chain_tells_the_steering_story_in_order():
    chain = causal_chain(STEERING_TRACE, "1:5000")
    kinds = [r["kind"] for r in chain]
    assert kinds == ["fault", "checkpoint", "snapshot", "mc_run",
                     "violation", "filter_install", "filter_trigger"]
    # Only the violation from the decisive mc run, not the older one.
    violation = next(r for r in chain if r["kind"] == "violation")
    assert violation["t"] == 10.0


def test_causal_chain_is_empty_when_steering_never_fired():
    assert causal_chain(STEERING_TRACE, "9:9999") == []
    assert causal_chain([meta()], "1:5000") == []


def test_trace_summary_and_filtering():
    tracer = MemoryTracer()
    sim = Simulator(EchoProtocol, NetworkModel(), seed=1,
                    obs=ObsContext(tracer=tracer))
    addrs = make_addresses(2)
    for a in addrs:
        sim.add_node(a)
    sim.schedule_app(1.0, addrs[0], "ping", {"target": addrs[1]})
    sim.run(until=3.0)
    summary = summarize_records(tracer.records)
    assert summary.total_events == len(tracer.records) > 0
    assert summary.by_kind["event"] == sim.events_executed
    assert summary.duration() >= 0
    only_b = filter_records(tracer.records, node=str(addrs[1]), kind="event")
    assert only_b and all(rec["node"] == str(addrs[1]) for rec in only_b)
    text = format_records(tracer.records, limit=5)
    assert text.splitlines()


def test_trace_summary_empty():
    summary = summarize_records([])
    assert summary.total_events == 0 and summary.duration() == 0
