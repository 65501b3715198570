"""Campaign execution: pool vs serial determinism, streaming, resume."""

import json
import warnings

import pytest

from repro.api import Experiment
from repro.campaign import (
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
    report = run_campaign(CampaignSpec(**TINY), jobs=1,
                          out=tmp_path / "store.jsonl", progress=seen.append)
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
    resumed = run_campaign(CampaignSpec(**TINY), jobs=1, out=store_path,
                           resume=True, progress=calls.append)
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
    resumed = run_campaign(CampaignSpec(**longer), jobs=1, out=store_path,
                           resume=True, progress=calls.append)
    assert resumed.timing["resumed_runs"] == 0
    assert len(calls) == 4, "same run ids, different duration: all rerun"


def test_resume_without_a_store_is_an_error():
    with pytest.raises(ValueError, match="resume needs a result store"):
        run_campaign(CampaignSpec(**TINY), jobs=1, resume=True)


def test_a_failing_run_becomes_an_error_record_not_a_crash():
    spec = CampaignSpec(systems=["randtree"], duration=20.0,
                        options={"bogus_option": 1})
    report = run_campaign(spec, jobs=1)
    assert report.run_count == 1
    assert report.failed == 1
    (failure,) = report.failures
    assert "bogus_option" in failure["error"]


def test_a_cell_whose_run_length_is_not_positive_is_an_error_record():
    report = run_campaign(CampaignSpec(systems=["randtree"], duration=-5.0),
                          jobs=1)
    assert report.failed == report.run_count == 1
    assert "positive duration" in report.failures[0]["error"]


def test_execute_run_records_summary_without_wall_clock():
    spec = CampaignSpec(systems=["randtree"], fault_presets=["partition"],
                        seeds=[1], duration=30.0)
    (run,) = spec.expand()
    record = execute_run(run.to_dict())
    assert record["status"] == "ok"
    assert record["summary"]["faults_injected"] > 0
    assert "wall_clock" not in json.dumps(record["summary"])
    assert record["wall_clock_seconds"] > 0


#: One cell per case, as ``CampaignSpec`` keyword arguments, and the builder
#: configured with the same settings.
CELL_AND_BUILDER = {
    "network-scalars": (
        dict(systems=["randtree"], seeds=[1], nodes=4, duration=40.0,
             network={"rst_loss": 0.6}),
        lambda: (Experiment("randtree").seed(1).nodes(4).duration(40)
                 .churn(False).network(rst_loss=0.6))),
    "fault-start-after": (
        dict(systems=["randtree"], seeds=[1], nodes=4, duration=60.0,
             fault_presets=["partition"], fault_start_after=50.0),
        lambda: (Experiment("randtree").seed(1).nodes(4).duration(60)
                 .churn(False).faults("partition", start_after=50.0))),
    # chord churns by default; the scenario preset switches that off, and a
    # campaign cell of the scenario keeps it off unless asked for.
    "live-scenario": (
        dict(systems=["chord"], scenarios=["link-flap"], seeds=[1],
             duration=60.0),
        lambda: (Experiment("chord").scenario("link-flap").seed(1)
                 .duration(60))),
    # The scenario's own faults, started late: none fits in the run.
    "live-scenario-fault-start-after": (
        dict(systems=["randtree"], scenarios=["partition-recovery"],
             seeds=[1], duration=160.0, fault_start_after=150.0),
        lambda: (Experiment("randtree").scenario("partition-recovery")
                 .seed(1).duration(160).faults(start_after=150.0))),
    "live-scenario-churn": (
        dict(systems=["chord"], scenarios=["link-flap"], seeds=[1],
             duration=60.0, churn=True, churn_interval=10.0),
        lambda: (Experiment("chord").scenario("link-flap").seed(1)
                 .duration(60).churn(True, interval=10.0))),
}


@pytest.mark.parametrize("case", list(CELL_AND_BUILDER))
def test_a_campaign_cell_reproduces_the_builder_run(case):
    spec, builder = CELL_AND_BUILDER[case]
    (run,) = CampaignSpec(**spec).expand()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither side ignores a setting
        cell = run_one(run)
        direct = builder().run()
    assert (cell.live_inconsistent_states()
            == direct.live_inconsistent_states())
    assert cell.faults_injected() == direct.faults_injected()
    assert cell.churn_events == direct.churn_events
    assert (cell.churn_events > 0) == spec.get("churn", False)


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
