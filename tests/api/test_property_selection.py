"""Property selection through Experiment, the CLI, and report rollups."""

import json

import pytest

from repro.api import Experiment
from repro.api.cli import main
from repro.api.registry import get_system
from repro.properties import get_property, select_properties
from repro.systems.randtree import ALL_PROPERTIES


def test_resolved_properties_defaults_to_the_system_set():
    experiment = Experiment("randtree")
    assert experiment.resolved_properties() == list(ALL_PROPERTIES)


def test_pattern_selection_resolves_in_registration_order():
    experiment = Experiment("randtree").properties("randtree.*")
    resolved = experiment.resolved_properties()
    safety = [prop for prop in resolved if prop.kind == "safety"]
    assert safety == list(ALL_PROPERTIES)
    assert any(prop.kind == "liveness" for prop in resolved), (
        "namespace selection includes the opt-in liveness properties")


def test_selection_with_exclude_and_instances():
    instance = get_property("chord.ordering_constraint")
    experiment = (Experiment("randtree")
                  .properties(instance, "randtree.*",
                              exclude=["randtree.recovery_timer_running",
                                       "randtree.*_joined",
                                       "randtree.rejoins_within_window"]))
    names = [prop.name for prop in experiment.resolved_properties()]
    assert names[0] == "chord.ordering_constraint"
    assert "randtree.recovery_timer_running" not in names
    assert "randtree.rejoins_within_window" not in names


def test_unknown_pattern_fails_the_run_loudly():
    experiment = Experiment("randtree").properties("randtree.typo_*")
    with pytest.raises(ValueError, match="matches no registered property"):
        experiment.run()


def test_run_report_carries_per_property_rollups():
    report = (Experiment("randtree")
              .nodes(5)
              .duration(150.0)
              .churn(interval=50.0)
              .network(rst_loss=0.6)
              .options(bootstrap_index=1, max_children=2,
                       fix_recovery_timer=True)
              .seed(9)
              .run())
    assert report.live_inconsistent_states() > 0
    rollup = report.violations_by_property()
    assert rollup, "a violating run must produce per-property counts"
    assert all(name.startswith("randtree.") for name in rollup)
    assert sum(rollup.values()) == \
        report.monitor["distinct_violation_episodes"]
    severity = report.violations_by_severity()
    assert sum(severity.values()) == sum(rollup.values())
    payload = json.loads(report.to_json())
    assert payload["properties"]["violations_by_property"] == rollup


def test_registered_properties_superset_of_defaults():
    spec = get_system("randtree")
    registered = {prop.name for prop in select_properties("randtree.*")}
    defaults = {prop.name for prop in spec.properties}
    assert defaults < registered
    # bulletprime maps to the historical "bullet." namespace.
    bullet = get_system("bulletprime")
    assert all(prop.name.startswith("bullet.") for prop in bullet.properties)


# ------------------------------------------------------------------------ CLI


def test_cli_properties_subcommand_lists_the_registry(capsys):
    assert main(["properties"]) == 0
    out = capsys.readouterr().out
    assert "randtree.children_siblings_disjoint" in out
    assert "liveness" in out


def test_cli_properties_subcommand_json_and_filter(capsys):
    assert main(["properties", "paxos.*", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [entry["id"] for entry in payload]
    assert "paxos.at_most_one_value_chosen" in names
    assert all(name.startswith("paxos.") for name in names)
    safety = [e for e in payload if e["kind"] == "safety"]
    assert all("scope" in entry and "severity" in entry for entry in safety)


def test_cli_properties_unknown_pattern_exits_2(capsys):
    assert main(["properties", "nope.*"]) == 2
    assert "matches no registered property" in capsys.readouterr().err


def test_cli_run_with_properties_emits_rollups(capsys):
    code = main(["run", "randtree", "--properties", "randtree.*",
                 "--ticks", "20", "--mode", "off", "--no-churn", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "violations_by_property" in payload["properties"]
    assert "violations_by_property" in payload["monitor"]


def test_cli_run_unknown_property_pattern_exits_2(capsys):
    code = main(["run", "randtree", "--properties", "bogus.*",
                 "--ticks", "5", "--no-churn"])
    assert code == 2
    assert "matches no registered property" in capsys.readouterr().err


def test_cli_empty_properties_value_exits_2(capsys):
    code = main(["run", "randtree", "--properties", "", "--ticks", "5",
                 "--no-churn"])
    assert code == 2
    assert "names no patterns" in capsys.readouterr().err


def test_cli_exclude_without_properties_exits_2(capsys):
    code = main(["run", "randtree", "--exclude-properties", "randtree.*",
                 "--ticks", "5"])
    assert code == 2
    assert "--exclude-properties needs --properties" in capsys.readouterr().err
