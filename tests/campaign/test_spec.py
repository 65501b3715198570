"""CampaignSpec expansion, RunSpec identity and axis parsing."""

import pytest

from repro.campaign import CampaignSpec, RunSpec, parse_axes
from repro.faults.presets import list_presets


def test_expand_is_the_full_cross_product():
    spec = CampaignSpec(systems=["randtree", "paxos"],
                        fault_presets=["partition", None],
                        seeds=[1, 2, 3],
                        modes=["off", "debug"])
    runs = spec.expand()
    assert len(runs) == 2 * 2 * 3 * 2
    ids = [run.run_id for run in runs]
    assert len(set(ids)) == len(ids), "run ids must be unique"


def test_expand_defaults_to_every_registered_system():
    runs = CampaignSpec().expand()
    assert {run.system for run in runs} == {
        "randtree", "chord", "paxos", "bulletprime", "crdtset", "kvstore"}
    assert all(run.scenario is None for run in runs)
    assert all(run.faults == () for run in runs)


def test_preset_combo_string_expands_to_multiple_presets():
    spec = CampaignSpec(systems=["randtree"],
                        fault_presets=["partition+delay"])
    (run,) = spec.expand()
    assert run.faults == ("partition", "delay")
    assert "partition+delay" in run.run_id


def test_per_system_durations_override_the_scalar():
    spec = CampaignSpec(systems=["randtree", "paxos"], duration=100.0,
                        durations={"paxos": 30.0})
    by_system = {run.system: run for run in spec.expand()}
    assert by_system["randtree"].duration == 100.0
    assert by_system["paxos"].duration == 30.0


def test_run_id_is_stable_and_order_independent():
    run = RunSpec(system="chord", scenario="link-flap", mode="steering",
                  seed=7, faults=("partition", "delay"))
    assert run.run_id == "chord:link-flap:partition+delay:steering:seed=7"


def test_runspec_round_trips_through_dict():
    run = RunSpec(system="paxos", mode="debug", seed=3,
                  faults=("crash",), duration=45.0, nodes=5,
                  options=(("fixed", True),))
    again = RunSpec.from_dict(run.to_dict())
    assert again == run
    assert again.run_id == run.run_id


@pytest.mark.parametrize("axes, message", [
    (dict(systems=["nosuch"]), "unknown system"),
    (dict(systems=["randtree"], fault_presets=["nosuch"]), "unknown fault preset"),
    (dict(systems=["paxos"], scenarios=["nosuch"]), "no scenario"),
    (dict(systems=["randtree"], modes=["warp"]), "unknown mode"),
])
def test_expand_rejects_unknown_axis_values(axes, message):
    with pytest.raises(ValueError, match=message):
        CampaignSpec(**axes).expand()


def test_expand_rejects_an_empty_system_axis():
    with pytest.raises(ValueError, match="no systems"):
        CampaignSpec(systems=[]).expand()


def test_parse_axes_reads_seed_ranges_and_lists():
    def seeds(raw):
        return parse_axes({"seeds": raw})["seeds"]

    assert seeds("3") == [3]
    assert seeds("1,5,9") == [1, 5, 9]
    assert seeds("0-3") == [0, 1, 2, 3]
    assert seeds("0-2,7") == [0, 1, 2, 7]
    with pytest.raises(ValueError):
        seeds("5-1")
    with pytest.raises(ValueError):
        seeds("")


def test_parse_axes_expands_all_and_none():
    kwargs = parse_axes({"systems": "all", "presets": "all",
                         "seeds": "1-2", "modes": "off,debug",
                         "scenarios": "live"})
    assert kwargs["systems"] is None
    assert kwargs["fault_presets"] == list_presets()
    assert kwargs["seeds"] == [1, 2]
    assert kwargs["modes"] == ["off", "debug"]
    assert kwargs["scenarios"] == [None]


def test_parse_axes_accepts_faults_as_alias_for_presets():
    kwargs = parse_axes({"faults": "partition,none"})
    assert kwargs["fault_presets"] == ["partition", None]


def test_parse_axes_all_survives_merging_with_named_values():
    # Repeated --axes flags for one key merge into "all,<name>"; "all"
    # must still win rather than fall through as a literal name.
    assert parse_axes({"systems": "all,chord"})["systems"] is None
    merged = parse_axes({"presets": "all,chaos"})["fault_presets"]
    assert merged == list_presets()
    with_none = parse_axes({"presets": "all,none"})["fault_presets"]
    assert with_none == list_presets() + [None]


def test_fault_start_after_is_carried_into_every_cell():
    spec = CampaignSpec(systems=["randtree"], fault_presets=["partition"],
                        fault_start_after=42.0)
    (run,) = spec.expand()
    assert run.fault_start_after == 42.0
    assert RunSpec.from_dict(run.to_dict()).fault_start_after == 42.0


def test_expand_rejects_fault_presets_crossed_with_scenarios():
    spec = CampaignSpec(systems=["randtree"], scenarios=["figure2"],
                        fault_presets=["delay"])
    with pytest.raises(ValueError, match="scenarios script their own faults"):
        spec.expand()
    # A live scenario is a preset of the live path and takes every axis.
    (run,) = CampaignSpec(systems=["randtree"],
                          scenarios=["partition-recovery"],
                          fault_presets=["delay"], backends=["tcp"]).expand()
    assert (run.faults, run.backend) == (("delay",), "tcp")


def test_scenarios_with_the_default_faultfree_axis_are_fine():
    spec = CampaignSpec(systems=["randtree"],
                        scenarios=["partition-recovery"])
    (run,) = spec.expand()
    assert run.scenario == "partition-recovery"
    assert run.faults == ()


def test_expand_rejects_durations_for_unknown_systems():
    spec = CampaignSpec(systems=["randtree"], durations={"paxo": 60.0})
    with pytest.raises(ValueError, match="unknown system.*paxo"):
        spec.expand()


def test_parse_axes_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown campaign axis"):
        parse_axes({"bogus": "1"})
