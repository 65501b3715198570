"""The campaign ``workloads=`` axis: expansion, run ids, end-to-end runs."""

import pytest

from repro.campaign import CampaignSpec, parse_axes, run_campaign
from repro.campaign.spec import RunSpec


def test_default_axis_keeps_legacy_run_ids():
    spec = CampaignSpec(systems=["chord"], seeds=[1])
    (run,) = spec.expand()
    assert run.workload is None
    assert run.run_id == "chord:live:none:off:seed=1"


def test_workload_axis_adds_a_wl_segment():
    spec = CampaignSpec(systems=["chord"], seeds=[1],
                        workloads=["lookups", None, "none"])
    runs = spec.expand()
    # None and "none" are the same workload-free cell: it expands once.
    assert [run.run_id for run in runs] == [
        "chord:live:none:off:seed=1:wl=lookups",
        "chord:live:none:off:seed=1",
    ]
    assert runs[0].workload == "lookups"
    assert runs[1].workload is None


def test_axes_dict_lists_workloads():
    spec = CampaignSpec(systems=["chord"], workloads=["lookups", None])
    assert spec.axes_dict()["workloads"] == ["lookups", "none"]


def test_unknown_workload_fails_expand():
    spec = CampaignSpec(systems=["chord"], workloads=["bogus"])
    with pytest.raises(ValueError, match="known workloads"):
        spec.expand()
    # A workload must exist on *every* swept system.
    spec = CampaignSpec(systems=["chord", "randtree"], workloads=["lookups"])
    with pytest.raises(ValueError, match="randtree.*has no workload 'lookups'"):
        spec.expand()


def test_workload_axis_refuses_scripted_scenarios():
    spec = CampaignSpec(systems=["chord"], scenarios=["figure10"],
                        workloads=["lookups"])
    with pytest.raises(ValueError, match="scripted scenarios"):
        spec.expand()


def test_unknown_override_keys_fail_expand():
    spec = CampaignSpec(systems=["chord"], workloads=["lookups"],
                        workload_overrides={"rate": 50.0, "ratee": 1})
    with pytest.raises(ValueError, match="unknown workload override"):
        spec.expand()


def test_overrides_only_attach_to_workload_cells():
    spec = CampaignSpec(systems=["chord"], workloads=["lookups", None],
                        workload_overrides={"rate": 50.0})
    with_wl, without = spec.expand()
    assert with_wl.workload_overrides == (("rate", 50.0),)
    assert without.workload_overrides == ()


def test_runspec_round_trips_workload():
    run = RunSpec(system="chord", workload="lookups",
                  workload_overrides=(("burst", 4), ("rate", 50.0)), seed=2)
    assert RunSpec.from_dict(run.to_dict()) == run
    bare = RunSpec(system="chord")
    assert RunSpec.from_dict(bare.to_dict()) == bare
    # Records written before the workload axis existed still load.
    legacy = {key: value for key, value in bare.to_dict().items()
              if key not in ("workload", "workload_overrides")}
    assert RunSpec.from_dict(legacy) == bare


def test_parse_axes_workloads_values():
    kwargs = parse_axes({"workloads": "lookups,none"})
    assert kwargs["workloads"] == ["lookups", None]


def test_campaign_runs_workload_cells_end_to_end():
    spec = CampaignSpec(
        systems=["chord"],
        seeds=[3],
        workloads=["lookups", None],
        workload_overrides={"rate": 40.0, "burst": 4, "start": 40.0},
        duration=120.0,
        nodes=6,
    )
    report = run_campaign(spec, jobs=1)
    by_id = {run["run_id"]: run for run in report.runs}
    driven = by_id["chord:live:none:off:seed=3:wl=lookups"]
    idle = by_id["chord:live:none:off:seed=3"]
    assert driven["summary"]["requests_injected"] > 0
    assert driven["summary"]["requests_completed"] > 0
    assert idle["summary"]["requests_injected"] == 0
