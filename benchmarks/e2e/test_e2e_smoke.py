"""Smoke test of the benchmark harness (collected by tier-1, a few seconds).

Runs every workload at its ``smoke`` size, twice, in fresh children — the
same path the benchmark takes, cut down — and checks the result schema,
the names BENCHMARK.json promises, golden equality and that two runs of one
seed give identical counts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, harness
from benchmarks.e2e.workloads import WORKLOADS

SPEC = harness.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


@pytest.fixture(scope="module")
def smoke_runs():
    return {name: [harness.measure(name, "smoke", 1, 0.0) for _ in range(2)]
            for name in WORKLOADS}


def test_benchmark_json_matches_the_harness():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def test_smoke_results_have_the_promised_shape(smoke_runs):
    promised = {m["name"] for m in SPEC["end_to_end"]}
    for name, (first, _) in smoke_runs.items():
        assert set(first["metrics"]) == promised, name
        assert all(value > 0 for value in first["metrics"].values()), name
        assert first["attempted"] >= 1 and first["failed"] == 0, name


def test_smoke_counts_match_the_goldens_and_repeat(smoke_runs):
    for name, (first, second) in smoke_runs.items():
        assert harness.golden_path(name, "smoke", 1).exists(), name
        assert first["correct"], (name, first["problems"])
        assert second["correct"], (name, second["problems"])
        assert ([u["counts"] for u in first["units"]]
                == [u["counts"] for u in second["units"]]), name


def test_a_changed_count_is_reported(smoke_runs):
    unit = json.loads(json.dumps(smoke_runs["tcp_kvstore8"][0]["units"][0]))
    unit["counts"]["events_executed"] += 1
    problems = harness.check_units("tcp_kvstore8", "smoke", 1, [unit])
    assert len(problems) == 1 and "/events_executed" in problems[0]


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [10.4] * 4, "lower", 0.08)[0] == "ok"
    assert compare.verdict(steady, [11.5] * 4, "lower", 0.08)[0] == "worse"
    assert compare.verdict(steady, [8.0] * 4, "higher", 0.08)[0] == "worse"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, steady, "lower", 0.08)[0] == "unresolved"
    assert compare.verdict(noisy, [5.0, 6.0, 7.0], "lower", 0.08)[0] == "ok"


def test_command_prints_one_result_object_last():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--workload",
         "search_offline", "--seed", "7", "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
