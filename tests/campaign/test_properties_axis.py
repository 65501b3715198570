"""The campaign ``properties=`` axis: expansion, determinism, rollups."""

import pytest

from repro.campaign import CampaignSpec, parse_axes, run_campaign
from repro.campaign.spec import RunSpec


def test_default_axis_keeps_legacy_run_ids():
    spec = CampaignSpec(systems=["randtree"], seeds=[1])
    (run,) = spec.expand()
    assert run.properties is None
    assert run.run_id == "randtree:live:none:off:seed=1"


def test_property_axis_adds_a_props_segment():
    spec = CampaignSpec(systems=["randtree"], seeds=[1],
                        properties=["randtree.*", None, "none"])
    runs = spec.expand()
    assert [run.run_id for run in runs] == [
        "randtree:live:none:off:seed=1:props=randtree.*",
        "randtree:live:none:off:seed=1",
        "randtree:live:none:off:seed=1:props=none",
    ]
    assert runs[0].properties == ("randtree.*",)
    assert runs[1].properties is None
    assert runs[2].properties == ()


def test_combo_values_and_axes_dict():
    spec = CampaignSpec(systems=["randtree"],
                        properties=["randtree.*+chord.*", "default"])
    runs = spec.expand()
    assert runs[0].properties == ("randtree.*", "chord.*")
    assert runs[1].properties is None
    assert spec.axes_dict()["properties"] == ["randtree.*+chord.*", "default"]


def test_unknown_property_pattern_fails_expand():
    spec = CampaignSpec(systems=["randtree"], properties=["bogus.*"])
    with pytest.raises(ValueError, match="matches no registered property"):
        spec.expand()


def test_properties_axis_refuses_scripted_scenarios():
    spec = CampaignSpec(systems=["randtree"], scenarios=["figure2"],
                        properties=["randtree.*"])
    with pytest.raises(ValueError, match="scripted scenarios"):
        spec.expand()


def test_runspec_round_trips_properties():
    run = RunSpec(system="randtree", properties=("randtree.*",),
                  properties_exclude=("randtree.recovery*",), seed=2)
    assert RunSpec.from_dict(run.to_dict()) == run
    bare = RunSpec(system="randtree")
    assert RunSpec.from_dict(bare.to_dict()) == bare


def test_parse_axes_properties_values():
    kwargs = parse_axes({"properties": "randtree.*,default,none"})
    assert kwargs["properties"] == ["randtree.*", None, "none"]


def _campaign_spec():
    return CampaignSpec(
        systems=["randtree"],
        seeds=[9],
        modes=["off"],
        properties=["randtree.*", "none"],
        duration=100.0,
        nodes=5,
        churn=True,
        churn_interval=50.0,
        network={"rst_loss": 0.6},
        options={"bootstrap_index": 1, "max_children": 2,
                 "fix_recovery_timer": True},
    )


def test_property_axis_produces_per_property_columns_deterministically():
    serial = run_campaign(_campaign_spec(), jobs=1)
    pooled = run_campaign(_campaign_spec(), jobs=2)
    assert serial.deterministic_dict() == pooled.deterministic_dict(), (
        "aggregate must be bit-identical across worker counts")
    assert serial.properties, "per-property columns must be present"
    assert all(name.startswith("randtree.") for name in serial.properties)
    for column in serial.properties.values():
        assert set(column) == {"violations", "runs_affected"}
    # The rollup axis separates the two selections.
    buckets = serial.rollups["properties"]
    assert set(buckets) == {"randtree.*", "none"}
    assert buckets["none"]["violations_observed"] == 0
    assert buckets["randtree.*"]["violations_observed"] > 0


def test_resume_accepts_stores_written_before_the_properties_axis(tmp_path):
    """Old JSONL records lack the properties/properties_exclude keys; they
    must still count as done when every present field matches defaults."""
    import json

    from repro.campaign import run_campaign
    from repro.campaign.store import make_record

    spec = CampaignSpec(systems=["randtree"], seeds=[5], duration=40.0,
                        nodes=3)
    (run,) = spec.expand()
    legacy_run = {key: value for key, value in run.to_dict().items()
                  if key not in ("properties", "properties_exclude")}
    record = make_record(legacy_run, status="ok", wall_clock_seconds=1.0,
                         summary={"faults_injected": 0,
                                  "violations_observed": 0})
    store_path = tmp_path / "store.jsonl"
    store_path.write_text(json.dumps(record) + "\n")

    report = run_campaign(spec, jobs=1, out=store_path, resume=True)
    assert report.timing["resumed_runs"] == 1, (
        "a pre-properties-axis record whose fields all match must resume")

    # A record that differs in a real setting still re-executes.
    changed = dict(legacy_run, duration=99.0)
    store_path.write_text(
        json.dumps(make_record(changed, status="ok", wall_clock_seconds=1.0,
                               summary={})) + "\n")
    report = run_campaign(spec, jobs=1, out=store_path, resume=True)
    assert report.timing["resumed_runs"] == 0
