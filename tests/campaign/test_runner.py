"""Campaign execution: pool vs serial determinism, streaming, resume."""

import json
import warnings

import pytest

from repro.api import Experiment
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    execute_run,
    run_campaign,
    run_one,
)

#: A tiny but non-trivial matrix: 2 systems × 2 fault combos × 1 seed.
TINY = dict(systems=["randtree", "paxos"],
            fault_presets=["partition", None],
            seeds=[1],
            duration=30.0)


def test_serial_and_pooled_runs_agree_on_the_aggregate(tmp_path):
    serial = run_campaign(CampaignSpec(**TINY), jobs=1,
                          out=tmp_path / "serial.jsonl")
    pooled = run_campaign(CampaignSpec(**TINY), jobs=2,
                          out=tmp_path / "pooled.jsonl")
    assert serial.deterministic_dict() == pooled.deterministic_dict()
    assert serial.timing["jobs"] == 1
    assert pooled.timing["jobs"] == 2


def test_rerunning_the_same_campaign_reproduces_the_aggregate_json():
    one = run_campaign(CampaignSpec(**TINY), jobs=1)
    two = run_campaign(CampaignSpec(**TINY), jobs=1)
    assert (json.dumps(one.deterministic_dict(), sort_keys=True)
            == json.dumps(two.deterministic_dict(), sort_keys=True))


def test_results_stream_to_the_store_as_runs_finish(tmp_path):
    seen = []
    runner = CampaignRunner(CampaignSpec(**TINY), jobs=1,
                            out=tmp_path / "store.jsonl",
                            progress=seen.append)
    report = runner.run()
    assert report.run_count == 4
    assert len(seen) == 4
    records = ResultStore(tmp_path / "store.jsonl").load()
    assert len(records) == 4
    assert all(record["status"] == "ok" for record in records)
    assert all(record["schema"] == 1 for record in records)
    # Per-run reports are carried in full for offline analysis.
    assert all("totals" in record["report"] for record in records)


def test_resume_skips_completed_runs_and_keeps_the_aggregate(tmp_path):
    store_path = tmp_path / "store.jsonl"
    full = run_campaign(CampaignSpec(**TINY), jobs=1, out=store_path)

    # Drop the last two lines: the campaign "crashed" half way through.
    lines = store_path.read_text().strip().splitlines()
    store_path.write_text("\n".join(lines[:2]) + "\n")

    calls = []
    resumed = CampaignRunner(CampaignSpec(**TINY), jobs=1, out=store_path,
                             progress=calls.append).run(resume=True)
    assert resumed.timing["resumed_runs"] == 2
    assert len(calls) == 2, "only the missing half reruns"
    assert resumed.deterministic_dict() == full.deterministic_dict()


def test_resume_ignores_store_entries_outside_the_campaign(tmp_path):
    store_path = tmp_path / "store.jsonl"
    run_campaign(CampaignSpec(**TINY), jobs=1, out=store_path)
    narrowed = dict(TINY, systems=["randtree"])
    resumed = run_campaign(CampaignSpec(**narrowed), jobs=1,
                           out=store_path, resume=True)
    assert resumed.run_count == 2
    assert resumed.timing["resumed_runs"] == 2


def test_resume_reruns_cells_whose_settings_changed(tmp_path):
    store_path = tmp_path / "store.jsonl"
    run_campaign(CampaignSpec(**TINY), jobs=1, out=store_path)
    longer = dict(TINY, duration=40.0)
    calls = []
    resumed = CampaignRunner(CampaignSpec(**longer), jobs=1, out=store_path,
                             progress=calls.append).run(resume=True)
    assert resumed.timing["resumed_runs"] == 0
    assert len(calls) == 4, "same run ids, different duration: all rerun"


def test_resume_without_a_store_is_an_error():
    with pytest.raises(ValueError, match="resume needs a result store"):
        CampaignRunner(CampaignSpec(**TINY), jobs=1).run(resume=True)


def test_a_failing_run_becomes_an_error_record_not_a_crash():
    spec = CampaignSpec(systems=["randtree"], duration=20.0,
                        options={"bogus_option": 1})
    report = run_campaign(spec, jobs=1)
    assert report.run_count == 1
    assert report.failed == 1
    (failure,) = report.failures
    assert "bogus_option" in failure["error"]


def test_execute_run_records_summary_without_wall_clock():
    spec = CampaignSpec(systems=["randtree"], fault_presets=["partition"],
                        seeds=[1], duration=30.0)
    (run,) = spec.expand()
    record = execute_run(run.to_dict())
    assert record["status"] == "ok"
    assert record["summary"]["faults_injected"] > 0
    assert "wall_clock" not in json.dumps(record["summary"])
    assert record["wall_clock_seconds"] > 0


def test_experiment_sweep_builds_on_the_builder_settings(tmp_path):
    report = (Experiment("randtree")
              .duration(30)
              .churn(False)
              .sweep(seeds=[1, 2], faults=["partition", None], jobs=1,
                     out=tmp_path / "sweep.jsonl"))
    assert report.run_count == 4
    assert report.succeeded == 4
    assert set(report.rollups["preset"]) == {"partition", "none"}
    assert set(report.rollups["seed"]) == {"1", "2"}
    assert ResultStore(tmp_path / "sweep.jsonl").exists()


def test_experiment_sweep_defaults_every_axis_to_the_builder_value():
    report = (Experiment("paxos")
              .duration(20)
              .seed(9)
              .faults("crash")
              .sweep(jobs=1))
    assert report.run_count == 1
    (row,) = report.runs
    assert row["seed"] == 9
    assert row["faults"] == ["crash"]


def test_sweep_cell_reproduces_a_plain_run_with_network_settings():
    def builder():
        return (Experiment("randtree")
                .nodes(4)
                .duration(40)
                .churn(False)
                .network(rst_loss=0.6)
                .seed(1))

    direct = builder().run()
    report = builder().sweep(jobs=1)
    (row,) = report.runs
    assert (row["summary"]["live_inconsistent_states"]
            == direct.live_inconsistent_states())


def test_sweep_rejects_an_explicit_network_model():
    from repro.runtime import NetworkModel

    with pytest.raises(ValueError, match="NetworkModel"):
        (Experiment("randtree").duration(20)
         .network(NetworkModel()).sweep(jobs=1))


def test_sweep_rejects_explicit_fault_instances():
    with pytest.raises(ValueError, match="Fault instances"):
        (Experiment("randtree").duration(20)
         .faults(partition_every=10, heal_after=2).sweep(jobs=1))


def test_sweep_carries_fault_start_after_into_the_cells():
    def builder():
        return (Experiment("randtree")
                .nodes(4)
                .duration(60)
                .churn(False)
                .seed(1)
                .faults("partition", start_after=50.0))

    direct = builder().run()
    report = builder().sweep(jobs=1)
    (row,) = report.runs
    assert row["summary"]["faults_injected"] == direct.faults_injected()
    assert (row["summary"]["live_inconsistent_states"]
            == direct.live_inconsistent_states())


def test_scenario_cells_honor_the_campaign_duration():
    spec = CampaignSpec(systems=["randtree"],
                        scenarios=["partition-recovery"],
                        duration=40.0)
    (run,) = spec.expand()
    report = run_one(run)
    assert report.simulated_seconds <= 40.0 + 1e-9
    assert report.scenario == "partition-recovery"


def test_live_scenario_cells_honor_the_campaign_churn_and_network():
    spec = CampaignSpec(systems=["chord"], scenarios=["link-flap"],
                        duration=80.0, churn=True, churn_interval=10.0,
                        network={"rtt": 0.2})
    (run,) = spec.expand()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing is "ignored" any more
        report = run_one(run)
    assert report.scenario == "link-flap"
    assert report.churn_events > 0
    assert report.simulator.network.default_rtt == 0.2


def test_sweep_warns_when_a_faults_axis_drops_fault_instances():
    from repro.faults import Partition

    with pytest.warns(UserWarning, match="Fault instances are dropped"):
        (Experiment("randtree").duration(20).churn(False)
         .faults(Partition(every=10, duration=2))
         .sweep(faults=["partition"], jobs=1))


def test_sweep_warns_about_uncarried_builder_settings():
    with pytest.warns(UserWarning, match="ignores these builder settings"):
        (Experiment("randtree").duration(20).churn(False)
         .crystalball("debug", engine="serial").sweep(jobs=1))


def test_sweeping_a_live_scenario_measures_what_run_does():
    # chord churns by default; the scenario preset switches that off, and a
    # sweep of the same builder must not switch it back on.
    def builder():
        return (Experiment("chord").scenario("link-flap").seed(1)
                .duration(60))

    direct = builder().run()
    assert direct.churn_events == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = builder().sweep(seeds=[1], jobs=1).runs
    assert row["summary"]["churn_events"] == 0
    assert (row["summary"]["live_inconsistent_states"]
            == direct.live_inconsistent_states())
    # Asked for explicitly, churn reaches the scenario cell.
    (row,) = builder().churn(True, interval=10.0).sweep(jobs=1).runs
    assert row["summary"]["churn_events"] > 0


def test_sweep_says_what_a_scenario_cell_does_not_get(monkeypatch):
    import repro.campaign

    monkeypatch.setattr(repro.campaign, "run_campaign",
                        lambda spec, **_: spec.expand())
    with pytest.warns(UserWarning, match="default churn stays off"):
        live, scenario = Experiment("chord").sweep(
            scenarios=["live", "link-flap"])
    assert not live.churn and not scenario.churn
    # A live scenario cell collects metrics like any live cell; an offline
    # search has no registry to read.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Experiment("chord").scenario("link-flap").metrics().sweep()
    with pytest.warns(UserWarning, match=r"ignores .*'metrics'"):
        Experiment("chord").scenario("figure10").metrics().sweep()
