"""Sim-vs-tcp semantic equivalence: same seed, same violations, same states.

The deployed-mode claim rests on the tcp backend being a *transport* change
only: the deterministic coordinator draws the same RNG sequence and executes
the same (time, seq) schedule, so a seeded run must produce the identical
property-violation set and land every node in the identical protocol state
— even though every delivery crossed a real socket as a compact-bytes
frame.  These runs are small (4-5 nodes, short horizons) to keep the real
socket traffic cheap in CI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.backends import protocol_state_digest
from repro.obs import MemoryTracer, strip_wall_fields


def _run(system, backend, *, seed, nodes, duration, **extra):
    experiment = (Experiment(system)
                  .nodes(nodes).duration(duration).seed(seed)
                  .crystalball("debug"))
    for name, value in extra.items():
        getattr(experiment, name)(value)
    if backend != "sim":
        experiment.backend(backend)
    return experiment.run()


def _assert_equivalent(sim_report, tcp_report):
    assert sim_report.violations_by_property() == \
        tcp_report.violations_by_property()
    assert protocol_state_digest(sim_report.simulator) == \
        protocol_state_digest(tcp_report.simulator)
    assert sim_report.total_predicted() == tcp_report.total_predicted()


def test_randtree_sim_and_tcp_agree_on_violations_and_states():
    sim_report = _run("randtree", "sim", seed=3, nodes=5, duration=120)
    tcp_report = _run("randtree", "tcp", seed=3, nodes=5, duration=120)
    _assert_equivalent(sim_report, tcp_report)
    # The tcp run genuinely used the wire: frames were shipped, including
    # control-plane checkpoint traffic, with no local fallbacks.
    wire = tcp_report.outcome["wire"]
    assert wire["frames_sent"] > 0
    assert wire["control_frames"] > 0
    assert wire["fallback_local"] == 0
    assert "wire" not in sim_report.outcome


def test_kvstore_sim_and_tcp_agree_on_violations_and_states():
    sim_report = _run("kvstore", "sim", seed=7, nodes=4, duration=100)
    tcp_report = _run("kvstore", "tcp", seed=7, nodes=4, duration=100)
    _assert_equivalent(sim_report, tcp_report)
    assert tcp_report.outcome["wire"]["frames_sent"] > 0


def test_tcp_run_detects_seeded_violation_over_real_sockets():
    """ISSUE acceptance: a tcp run with CrystalBall attached detects at
    least one seeded property violation over real sockets and reports it
    with backend="tcp"."""
    report = _run("randtree", "tcp", seed=3, nodes=5, duration=120)
    assert report.backend == "tcp"
    assert report.to_dict()["backend"] == "tcp"
    assert sum(report.violations_by_property().values()) >= 1


def test_a_rerun_in_one_process_ships_the_same_bytes():
    """Messages are numbered by the simulator that sends them, so a second
    same-seed run in one process pickles the same ids into its frames."""

    def tcp_run():
        tracer = MemoryTracer()
        report = (Experiment("kvstore").nodes(4).seed(5).backend("tcp")
                  .trace(tracer).run())
        return report.outcome["wire"], strip_wall_fields(tracer.records)

    (first_wire, first_trace), (second_wire, second_trace) = \
        tcp_run(), tcp_run()
    assert first_wire["wire_bytes"] == second_wire["wire_bytes"]
    assert first_wire["fallback_local"] == 0
    assert first_trace == second_trace


def _wire_bytes_at_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", "randtree", "--nodes", "3",
         "--ticks", "3", "--backend", "tcp", "--backend-option",
         "host=127.0.0.1", "--json"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)["outcome"]["wire"]["wire_bytes"]


def test_wire_bytes_do_not_depend_on_the_hash_seed():
    """A checkpoint response ships its timer names sorted: a set of strings
    pickles in string-hash order, which would make the frame size follow
    ``PYTHONHASHSEED``.  One process cannot show this, so two do."""
    assert _wire_bytes_at_hash_seed(0) == _wire_bytes_at_hash_seed(1)


def test_sim_report_omits_backend_field_in_serialized_form():
    report = _run("randtree", "sim", seed=1, nodes=3, duration=40)
    assert report.backend == "sim"
    assert "backend" not in report.to_dict()


@pytest.mark.parametrize("system, scenario", [
    ("randtree", "partition-recovery"), ("kvstore", "quorum-partition"),
    ("paxos", "figure13-bug1"), ("bulletprime", "download")])
def test_a_live_scenario_runs_over_tcp_to_the_same_states(system, scenario):
    """A scenario is a preset of the one live path, so it takes the backend
    like any other setting: same faults, same violations, same states —
    Figure 13's two rounds, armed at absolute times, and its verdict
    included."""
    sim_report = Experiment(system).scenario(scenario).seed(1).run()
    tcp_report = (Experiment(system).scenario(scenario).seed(1)
                  .backend("tcp").run())
    assert tcp_report.backend == "tcp"
    assert tcp_report.scenario == scenario
    _assert_equivalent(sim_report, tcp_report)
    assert tcp_report.faults == sim_report.faults
    if sim_report.faults:
        assert tcp_report.faults_injected() > 0
    wire = tcp_report.outcome.pop("wire")
    assert tcp_report.outcome == sim_report.outcome
    assert wire["frames_sent"] > 0
    assert wire["fallback_local"] == 0
