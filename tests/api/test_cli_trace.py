"""The ``trace`` subcommand and the ``run --trace/--metrics`` flags."""

import json

import pytest

from repro.api.cli import main
from repro.obs import SCHEMA_VERSION


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """One small traced run shared by every inspection test."""
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    assert main(["run", "randtree", "--ticks", "4", "--nodes", "4",
                 "--max-states", "100", "--max-depth", "4", "--no-churn",
                 "--trace", str(path), "--metrics", "--json"]) == 0
    return path


def test_run_with_metrics_embeds_snapshot_in_report(trace_file, capsys):
    assert main(["run", "randtree", "--ticks", "3", "--nodes", "3",
                 "--max-states", "50", "--no-churn", "--metrics",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["counters"]["runtime.events_executed"] > 0
    assert "controller.tick_seconds" in report["metrics"]["histograms"]


def test_trace_validate_passes_on_fresh_trace(trace_file, capsys):
    assert main(["trace", str(trace_file), "--validate"]) == 0
    assert "schema v1 OK" in capsys.readouterr().out


def test_trace_validate_fails_on_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "wat", "t": 1.0}\n')
    assert main(["trace", str(bad), "--validate"]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_trace_missing_file_is_an_input_error(capsys):
    assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_summary_lists_kind_counts(trace_file, capsys):
    assert main(["trace", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "records:" in out
    assert "event" in out and "send" in out


def test_trace_summary_json(trace_file, capsys):
    assert main(["trace", str(trace_file), "--summary", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_records"] > 0
    assert payload["by_kind"]["event"] > 0


def test_trace_filter_by_kind(trace_file, capsys):
    assert main(["trace", str(trace_file), "--kind", "checkpoint",
                 "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records
    assert all(record["kind"] == "checkpoint" for record in records)


def test_trace_chrome_export(trace_file, tmp_path, capsys):
    out_path = tmp_path / "chrome.json"
    assert main(["trace", str(trace_file), "--chrome", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["traceEvents"]
    assert payload["otherData"]["v"] == SCHEMA_VERSION


def test_trace_why_steering_without_steering_exits_nonzero(
    trace_file, capsys
):
    assert main(["trace", str(trace_file), "--why-steering", "9:9"]) == 1
    assert "no steering activity" in capsys.readouterr().err


def test_trace_why_steering_finds_the_chain(tmp_path, capsys):
    path = tmp_path / "steer.jsonl"
    assert main(["run", "randtree", "--mode", "steering", "--duration",
                 "120", "--nodes", "5", "--seed", "9", "--faults",
                 "partition", "--max-states", "300", "--max-depth", "6",
                 "--option", "bootstrap_index=1", "--option",
                 "max_children=2", "--option", "fix_recovery_timer=true",
                 "--no-churn", "--trace", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    installed = report["totals"]["filters_installed"]
    if installed == 0:
        pytest.skip("seed produced no steering decision")
    assert main(["trace", str(path), "--why-steering", "2:5000",
                 "--json"]) == 0
    chain = json.loads(capsys.readouterr().out)
    kinds = [record["kind"] for record in chain]
    assert "filter_install" in kinds
    assert "mc_run" in kinds
    times = [record["t"] for record in chain]
    assert times == sorted(times)  # chronological
