"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
GOLDEN = Path(__file__).resolve().parents[1] / "_golden"


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse wraps usage differently from 3.13 on; "
                           "the pin is of this repo's flags, not of argparse")
@pytest.mark.parametrize("command", ["run", "attack"])
def test_help_text_is_pinned(command, capsys, monkeypatch):
    # The two subcommands declare the flags they share once; the text a
    # user reads is theirs byte for byte (argparse wraps at $COLUMNS).
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == (
        GOLDEN / f"cli_help_{command}.txt").read_text(encoding="utf-8")


def test_package_version_matches_pyproject():
    import tomllib

    import repro

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert repro.__version__ == project["version"]


def test_list_names_all_bundled_systems(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("randtree", "chord", "paxos", "bulletprime"):
        assert name in out


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in payload}
    assert {"randtree", "chord", "paxos", "bulletprime"} <= names
    randtree = next(e for e in payload if e["name"] == "randtree")
    assert "figure2" in randtree["scenarios"]


def test_run_scenario_json_round_trips(capsys):
    assert main(["run", "randtree", "--scenario", "figure2", "--json",
                 "--option", "max_states=2000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["system"] == "randtree"
    assert report["scenario"] == "figure2"
    assert report["outcome"]["violations"] >= 0


def test_run_live_json_round_trips(capsys):
    assert main(["run", "randtree", "--json", "--ticks", "4", "--nodes", "3",
                 "--max-states", "100", "--max-depth", "4", "--no-churn",
                 "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["system"] == "randtree"
    assert report["node_count"] == 3
    assert report["mode"] == "debug"
    assert len(report["nodes"]) == 3
    # The full controller-stats surface is serialized per node.
    stats = report["nodes"][0]["stats"]
    for key in ("incomplete_snapshots", "replayed_paths", "replay_reproduced",
                "checkpoints_taken", "violations_predicted"):
        assert key in stats
    assert "violations_avoided" in report["accounting"]


def test_run_human_readable_output(capsys):
    assert main(["run", "randtree", "--ticks", "3", "--nodes", "3",
                 "--max-states", "50", "--max-depth", "3", "--no-churn"]) == 0
    out = capsys.readouterr().out
    assert "system: randtree" in out
    assert "per-node controllers" in out


def test_unknown_system_and_scenario_fail_cleanly(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown system" in capsys.readouterr().err
    assert main(["run", "randtree", "--scenario", "nope"]) == 2
    assert "no scenario" in capsys.readouterr().err


def test_bad_mode_and_bad_option_fail_cleanly(capsys):
    assert main(["run", "randtree", "--mode", "bogus"]) == 2
    assert "unknown mode" in capsys.readouterr().err
    assert main(["run", "randtree", "--scenario", "figure2",
                 "--option", "fixd=true"]) == 2
    assert "unknown option" in capsys.readouterr().err
    # mode/seed are reserved for the builder, not --option.
    assert main(["run", "paxos", "--scenario", "figure13-bug1",
                 "--option", "mode=steering"]) == 2
    assert "unknown option" in capsys.readouterr().err


def test_python_dash_m_repro_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "repro", "list"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "randtree" in proc.stdout
