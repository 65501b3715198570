"""Fault injection through the unified API: builder, CLI, scenarios."""

import json
import warnings

import pytest

from repro.api import Experiment, get_system, list_systems
from repro.api.cli import main
from repro.faults import Partition, list_presets
from repro.obs import MemoryTracer

LIVE_SCENARIOS = [(spec.name, name) for spec in list_systems()
                  for name, scenario in sorted(spec.scenarios.items())
                  if scenario.kind == "live"]


def test_builder_faults_with_preset_names():
    report = (Experiment("randtree").nodes(4).duration(120).churn(False)
              .faults("partition").seed(3).run())
    assert report.faults_injected() > 0
    assert report.fault_breakdown()["partition"]["injected"] > 0
    assert report.to_dict()["faults"]["faults_injected"] == report.faults_injected()


def test_builder_periodic_partition_heals():
    report = (Experiment("paxos").nodes(3).duration(60).churn(False)
              .faults(Partition(every=15.0, duration=5.0)).seed(1).run())
    assert report.faults_injected() > 0
    assert set(report.fault_breakdown()) == {"partition"}
    healed = report.fault_breakdown()["partition"]["healed"]
    assert healed == report.fault_breakdown()["partition"]["injected"]


def test_builder_mixes_presets_and_fault_instances():
    report = (Experiment("randtree").nodes(3).duration(80).churn(False)
              .faults("clock-skew", Partition(at=20.0, duration=10.0))
              .seed(2).run())
    assert set(report.fault_breakdown()) == {"clock-skew", "partition"}


def test_fault_seed_decouples_schedule_from_run_seed():
    def breakdown(fault_seed):
        return (Experiment("randtree").nodes(4).duration(120).churn(False)
                .faults("crash", seed=fault_seed).seed(5).run()
                .faults.get("schedule"))
    assert breakdown(1) == breakdown(1)
    assert breakdown(1) != breakdown(2)


def test_scenario_warns_about_builder_faults():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (Experiment("randtree").scenario("figure2").faults("partition")
         .options(max_states=200).run())
    assert any("faults" in str(w.message) for w in caught
               if issubclass(w.category, UserWarning))


def test_fault_scenarios_registered_for_every_system():
    expected = {
        "randtree": {"partition-recovery", "flaky-network"},
        "chord": {"partition-churn", "link-flap"},
        "paxos": {"leader-crash", "partition-quorum"},
        "bulletprime": {"mesh-partition", "slow-links"},
    }
    for system, names in expected.items():
        assert names <= set(get_system(system).scenarios)


def test_fault_scenario_produces_fault_breakdown():
    report = (Experiment("chord").scenario("partition-churn")
              .duration(120).seed(4).run())
    assert report.system == "chord"
    assert report.scenario == "partition-churn"
    assert report.faults_injected() > 0
    assert "partition" in report.fault_breakdown()


def test_every_system_registers_two_live_scenarios():
    # Two fault scenarios each, plus Paxos Figure 13 (twice) and the
    # Bullet' download.
    assert len(LIVE_SCENARIOS) == 15
    assert {system for system, _ in LIVE_SCENARIOS} == {
        spec.name for spec in list_systems()}


@pytest.mark.parametrize("system, name", LIVE_SCENARIOS)
def test_a_live_scenario_is_traced_and_metered_under_its_name(system, name):
    tracer = MemoryTracer()
    report = (Experiment(system).scenario(name).seed(1)
              .trace(tracer).metrics().run())
    meta = tracer.records[0]
    assert meta["kind"] == "meta"
    assert (meta["system"], meta["scenario"]) == (system, name)
    assert tracer.records[-1]["kind"] == "run_end"
    counters = report.metrics["counters"]
    assert counters["runtime.events_executed"] > 0
    scenario = get_system(system).scenario(name)
    if scenario.faults or scenario.faults_factory is not None:
        assert counters["faults.inject"] == report.faults_injected() > 0


def test_explicit_settings_win_over_a_scenario_in_either_order():
    before = Experiment("chord").nodes(9).scenario("link-flap").seed(1).run()
    after = Experiment("chord").scenario("link-flap").nodes(9).seed(1).run()
    assert before.node_count == after.node_count == 9
    assert before.to_dict().keys() == after.to_dict().keys()
    assert before.monitor == after.monitor
    # The scenario's other presets still apply: its length, and churn off.
    assert before.simulated_seconds <= 240.0 and before.churn_events == 0
    assert Experiment("chord").scenario("link-flap").duration(40).run() \
        .simulated_seconds <= 40.0


def test_a_scenarios_options_lose_to_the_builders():
    preset = Experiment("crdtset").scenario("lww-divergence").seed(1).run()
    assert preset.simulator.protocol_factory().config.lww is True
    fixed = (Experiment("crdtset").options(lww=False)
             .scenario("lww-divergence").seed(1).run())
    assert fixed.simulator.protocol_factory().config.lww is False
    assert fixed.scenario == "lww-divergence"


def test_run_end_tears_down_open_fault_windows():
    from repro.faults import CrashRestart, MessageDelay
    from repro.runtime import NetworkModel

    # Both windows are still open when the run ends (heals land past the
    # horizon); a caller-supplied network model must come back clean.
    model = NetworkModel()
    report = (Experiment("randtree").nodes(4).duration(100).churn(False)
              .network(model)
              .faults(Partition(at=70.0, duration=100.0),
                      MessageDelay(at=70.0, duration=100.0),
                      CrashRestart(at=70.0, duration=100.0))
              .seed(2).run())
    assert report.faults_injected() == 3
    assert not model.partitions
    assert not model.interceptors
    # The crashed node stays down (state is sim-local, not shared residue).
    sim = report.simulator
    assert sum(1 for node in sim.nodes.values() if not node.alive) == 1
    # A rerun through the same builder and model reproduces the schedule.
    rerun = (Experiment("randtree").nodes(4).duration(100).churn(False)
             .network(model)
             .faults(Partition(at=70.0, duration=100.0),
                     MessageDelay(at=70.0, duration=100.0),
                     CrashRestart(at=70.0, duration=100.0))
             .seed(2).run())
    assert rerun.faults["schedule"] == report.faults["schedule"]


# ------------------------------------------------------------------- CLI


def test_cli_faults_subcommand_lists_presets(capsys):
    assert main(["faults"]) == 0
    out = capsys.readouterr().out
    for name in list_presets():
        assert name in out


def test_cli_faults_subcommand_json(capsys):
    assert main(["faults", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"] == ["partition"]
    assert "crash-restart" in payload["chaos"]


def test_cli_run_with_faults_json_round_trips(capsys):
    assert main(["run", "chord", "--faults", "partition", "--ticks", "20",
                 "--mode", "off", "--no-churn", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["faults"]["faults_injected"] > 0
    assert report["faults"]["by_type"]["partition"]["injected"] > 0


def test_cli_run_with_comma_separated_presets(capsys):
    assert main(["run", "randtree", "--faults", "clock-skew,crash",
                 "--ticks", "12", "--mode", "off", "--no-churn",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["faults"]["by_type"]) == {"clock-skew", "crash-restart"}


def test_cli_unknown_preset_fails_cleanly(capsys):
    assert main(["run", "randtree", "--faults", "nope", "--ticks", "5"]) == 2
    assert "unknown fault preset" in capsys.readouterr().err


def test_cli_human_readable_output_shows_faults(capsys):
    assert main(["run", "randtree", "--faults", "partition", "--ticks", "12",
                 "--mode", "off", "--no-churn"]) == 0
    assert "faults: injected=" in capsys.readouterr().out


def test_cli_fail_on_violation_flags_violating_run(capsys):
    # The scripted Figure 13 bug reliably produces a violation when
    # CrystalBall is off...
    assert main(["run", "paxos", "--scenario", "figure13-bug1",
                 "--mode", "off", "--fail-on-violation"]) == 1
    assert "safety violation" in capsys.readouterr().err
    # ...and the same command without the flag still exits 0.
    assert main(["run", "paxos", "--scenario", "figure13-bug1",
                 "--mode", "off"]) == 0


def test_cli_fail_on_violation_passes_clean_run(capsys):
    # Bug-free Paxos holds agreement: nothing for the flag to trip on.
    assert main(["run", "paxos", "--mode", "off", "--no-churn",
                 "--fail-on-violation"]) == 0
