"""Every registered scenario's report is pinned, through every front door.

``tests/_golden/scenario_reports.json`` holds ``RunReport.to_dict()`` of all
22 registered scenarios at seed 1 in mode ``off`` — the 7 offline searches
and the 15 live presets (12 fault scenarios, Paxos Figure 13 twice, the
Bullet' download) — plus mode ``steering`` for four live scenarios, with
the wall-clock fields stripped.
A scenario is a preset folded into the builder, so the same bytes must come
out of the builder, of ``python -m repro run --scenario`` and of a one-cell
campaign.  Every cell is pinned through the CLI, which drives the builder;
the builder is also called directly for one cell per scenario kind per
system.

Regenerate (only when a scenario is *meant* to change) with::

    PYTHONPATH=src python tests/api/test_scenarios_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.api import Experiment, list_systems
from repro.api.cli import main
from repro.campaign.spec import scenario_kind

GOLDEN = Path(__file__).resolve().parents[1] / "_golden" / "scenario_reports.json"

#: Live scenarios also pinned with the controllers steering.
STEERED = (("randtree", "partition-recovery"), ("randtree", "flaky-network"),
           ("chord", "partition-churn"), ("paxos", "leader-crash"))

#: One scenario per system goes through a one-cell campaign as well.
CAMPAIGN_CELLS = (("randtree", "partition-recovery"), ("chord", "figure10"),
                  ("paxos", "figure13-bug1"), ("bulletprime", "slow-links"),
                  ("crdtset", "lww-divergence"),
                  ("kvstore", "quorum-partition"))

_WALL_CLOCK = ("wall_clock_seconds", "elapsed_seconds")


def cells() -> list[tuple[str, str, str]]:
    """``(system, scenario, mode)`` of every pinned run, in golden order."""
    pinned = [(spec.name, name, "off")
              for spec in list_systems() for name in sorted(spec.scenarios)]
    return pinned + [(system, name, "steering") for system, name in STEERED]


def builder_cells() -> set[tuple[str, str, str]]:
    """The first pinned cell of each scenario kind of each system."""
    first: dict[tuple[str, str], tuple[str, str, str]] = {}
    for cell in cells():
        first.setdefault((cell[0], scenario_kind(*cell[:2])), cell)
    return set(first.values())


def key(system: str, scenario: str, mode: str) -> str:
    return f"{system}:{scenario}@{mode}"


def strip(data):
    """``data`` without the fields that carry wall-clock time."""
    if isinstance(data, dict):
        return {name: strip(value) for name, value in data.items()
                if name not in _WALL_CLOCK}
    if isinstance(data, list):
        return [strip(value) for value in data]
    return data


def line(report: dict) -> str:
    """The golden's bytes for one report."""
    return json.dumps(strip(report), sort_keys=True, separators=(",", ":"))


def through_builder(system: str, scenario: str, mode: str) -> dict:
    experiment = Experiment(system).scenario(scenario).seed(1)
    if mode != "off":
        experiment.mode(mode)
    return experiment.run().to_dict()


def through_cli(system: str, scenario: str, mode: str, capsys) -> dict:
    capsys.readouterr()
    assert main(["run", system, "--scenario", scenario, "--seed", "1",
                 "--mode", mode, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def through_campaign(system: str, scenario: str, mode: str, store) -> dict:
    assert main(["campaign", "--axes", f"systems={system}",
                 "--axes", f"scenarios={scenario}", "--axes", "seeds=1",
                 "--axes", f"modes={mode}", "--jobs", "1",
                 "--out", str(store), "--json"]) == 0
    (record,) = [json.loads(row)
                 for row in store.read_text(encoding="utf-8").splitlines()]
    return record["report"]


def render() -> str:
    """The golden text: one compact report per line, keyed by cell."""
    rows = ",\n".join(
        f" {json.dumps(key(*cell))}: {line(through_builder(*cell))}"
        for cell in cells())
    return "{\n" + rows + "\n}\n"


def _golden_lines() -> dict[str, str]:
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {name: line(report) for name, report in pinned.items()}


def test_the_golden_covers_every_registered_scenario():
    assert list(_golden_lines()) == [key(*cell) for cell in cells()]
    assert len([cell for cell in cells() if cell[2] == "off"]) == 22


@pytest.mark.parametrize("cell", cells(), ids=lambda cell: key(*cell))
def test_builder_and_cli_reproduce_the_golden(cell, capsys):
    pinned = _golden_lines()[key(*cell)]
    assert line(through_cli(*cell, capsys)) == pinned, "python -m repro run"
    if cell in builder_cells():
        assert line(through_builder(*cell)) == pinned, "Experiment(...).run()"


@pytest.mark.parametrize("cell", CAMPAIGN_CELLS, ids=lambda cell: ":".join(cell))
def test_a_one_cell_campaign_reproduces_the_golden(cell, tmp_path, capsys):
    report = through_campaign(*cell, "off", tmp_path / "store.jsonl")
    capsys.readouterr()
    if scenario_kind(*cell) == "live":
        # A live scenario is a live cell: the worker collects metrics, which
        # `run --scenario` without --metrics does not.
        assert report["metrics"]["counters"]
        report["metrics"] = {}
    assert line(report) == _golden_lines()[key(*cell, "off")]


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
