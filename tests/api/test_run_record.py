"""``repro run`` is a :class:`RunSpec`: a command line and its record give
one report.

Each case pairs a ``run`` command line with the record it stands for,
written out field by field, and runs the line through ``main`` and the
record through the campaign's ``run_one``.  The two reports must match,
minus wall-clock fields and metrics (a live campaign cell always collects
metrics, and metrics never change a seeded run), and the command line
must build exactly that record.  Together the cases use every flag the
``run`` parser maps onto the record.
"""

import json

import pytest

from repro.api.cli import main
from repro.campaign import CampaignSpec, RunSpec, run_campaign, run_one
from repro.campaign.store import ResultStore

_WALL_CLOCK = ("wall_clock_seconds", "elapsed_seconds")


def _strip(data):
    if isinstance(data, dict):
        return {name: _strip(value) for name, value in data.items()
                if name not in _WALL_CLOCK}
    if isinstance(data, list):
        return [_strip(value) for value in data]
    return data


def _comparable(report: dict) -> dict:
    report.pop("metrics", None)
    return _strip(report)


#: ``run`` arguments and the record they describe.  randtree and chord
#: tick every 10 s and churn every 60 s by default.
CASES = {
    "budget-engine-check-period": (
        ["randtree", "--nodes", "4", "--seed", "1", "--ticks", "6",
         "--max-states", "100", "--max-depth", "4", "--engine", "serial",
         "--check-period", "2"],
        RunSpec("randtree", mode="debug", seed=1, nodes=4, duration=60.0,
                churn=True, churn_interval=60.0, max_states=100,
                max_depth=4, engine="serial", check_period=2)),
    "one-bound": (
        ["randtree", "--nodes", "4", "--seed", "1", "--ticks", "6",
         "--max-states", "100"],
        RunSpec("randtree", mode="debug", seed=1, nodes=4, duration=60.0,
                churn=True, churn_interval=60.0, max_states=100)),
    "tcp-backend-option": (
        ["randtree", "--nodes", "3", "--ticks", "3", "--no-churn",
         "--backend", "tcp", "--backend-option", "host=127.0.0.1"],
        RunSpec("randtree", mode="debug", nodes=3, duration=30.0,
                backend="tcp", backend_options=(("host", "127.0.0.1"),))),
    "workload-overrides": (
        ["chord", "--nodes", "6", "--duration", "100", "--no-churn",
         "--mode", "off", "--workload", "lookups", "--workload-rate", "30",
         "--workload-burst", "3", "--workload-keys", "50",
         "--workload-distribution", "zipf", "--workload-start", "30",
         "--workload-duration", "50"],
        RunSpec("chord", nodes=6, duration=100.0, workload="lookups",
                workload_overrides=(("burst", 3), ("distribution", "zipf"),
                                    ("duration", 50.0), ("keys", 50),
                                    ("rate", 30.0), ("start", 30.0)))),
    "properties": (
        ["randtree", "--nodes", "4", "--ticks", "8", "--mode", "off",
         "--properties", "randtree.*",
         "--exclude-properties", "randtree.recovery_timer_running"],
        RunSpec("randtree", nodes=4, duration=80.0, churn=True,
                churn_interval=60.0, properties=("randtree.*",),
                properties_exclude=("randtree.recovery_timer_running",))),
    "system-default-churn": (
        ["chord", "--nodes", "5", "--seed", "2", "--duration", "80"],
        RunSpec("chord", mode="debug", seed=2, nodes=5, duration=80.0,
                churn=True, churn_interval=60.0)),
    "churn-interval": (
        ["chord", "--nodes", "5", "--seed", "1", "--ticks", "8",
         "--churn-interval", "20", "--mode", "steering"],
        RunSpec("chord", mode="steering", seed=1, nodes=5, duration=80.0,
                churn=True, churn_interval=20.0)),
    "no-default-churn": (
        ["paxos", "--seed", "1", "--ticks", "12"],
        RunSpec("paxos", mode="debug", seed=1, duration=60.0)),
    "faults": (
        ["randtree", "--nodes", "5", "--ticks", "10", "--mode", "off",
         "--no-churn", "--faults", "partition,crash", "--fault-seed", "4"],
        RunSpec("randtree", nodes=5, duration=100.0,
                faults=("partition", "crash"), fault_seed=4)),
    "live-scenario-option": (
        ["randtree", "--scenario", "partition-recovery", "--seed", "1",
         "--mode", "steering", "--duration", "80",
         "--option", "max_children=3"],
        RunSpec("randtree", scenario="partition-recovery", mode="steering",
                seed=1, duration=80.0, options=(("max_children", 3),))),
    "search-scenario-option": (
        ["randtree", "--scenario", "figure2", "--option", "max_states=300"],
        RunSpec("randtree", scenario="figure2", mode="debug",
                options=(("max_states", 300),))),
    "scenario-live-is-a-live-run": (
        ["randtree", "--scenario", "live", "--nodes", "3", "--ticks", "3"],
        RunSpec("randtree", mode="debug", nodes=3, duration=30.0,
                churn=True, churn_interval=60.0)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_run_command_and_its_record_give_the_same_report(case, capsys,
                                                           monkeypatch):
    arguments, record = CASES[case]
    built = []
    experiment = RunSpec.experiment
    monkeypatch.setattr(RunSpec, "experiment",
                        lambda run: built.append(run) or experiment(run))
    capsys.readouterr()
    assert main(["run", *arguments, "--json"]) == 0
    from_cli = json.loads(capsys.readouterr().out)
    from_record = json.loads(run_one(record).to_json())
    # Some settings (a tcp host) leave no trace in a report: the command
    # line must build exactly this record.
    assert built == [record, record]
    assert _comparable(from_cli) == _comparable(from_record)


def test_a_record_stored_before_the_run_flags_existed_still_resumes(tmp_path):
    store = tmp_path / "store.jsonl"
    spec = CampaignSpec(systems=["randtree"], seeds=[1], duration=20.0)
    run_campaign(spec, jobs=1, out=store)
    records = ResultStore(store).load()
    for stored in records:
        for key in ("backend_options", "engine", "max_states", "max_depth",
                    "check_period"):
            del stored["run"][key]
    store.write_text("".join(json.dumps(stored) + "\n"
                             for stored in records), encoding="utf-8")
    resumed = run_campaign(spec, jobs=1, out=store, resume=True)
    assert resumed.timing["resumed_runs"] == resumed.run_count == 1
