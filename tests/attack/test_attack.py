"""End-to-end and unit tests for the repro.attack pipeline."""

import json

import pytest

import repro.attack as attack_module
from repro.api.cli import main
from repro.api.report import RunReport
from repro.attack import (
    AttackConfig,
    AttackReport,
    AttackResult,
    AttackSchedule,
    concretize,
    find_attack,
)
from repro.campaign.runner import run_one, summarize_report
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.faults.byzantine import EquivocatingNode, MessageTamper


# -- schedules ---------------------------------------------------------------

def test_concretize_unrolls_the_equivocation_preset():
    schedule = concretize(("equivocation",), duration=60.0, seed=7,
                          start_after=6.0)
    # every=duration/3=20s, stop_after=0.9*60=54: firings at 26 and 46.
    assert [step.at for step in schedule.steps] == [26.0, 46.0]
    assert all(step.name == "equivocating-node" for step in schedule.steps)
    assert [step.rng_key for step in schedule.steps] == \
        ["attack/7/0", "attack/7/1"]
    assert schedule.seed == 7
    assert schedule.duration == 60.0


def test_concretize_caps_runaway_periodic_schedules():
    fault = MessageTamper(every=0.1, duration=0.5)
    schedule = concretize([fault], duration=60.0)
    assert len(schedule) == 64  # _MAX_STEPS bound, not ~540 steps


def test_schedule_round_trips_through_json():
    schedule = concretize(
        [EquivocatingNode(at=5.0, duration=4.0, target=1,
                          mtypes=("Promise", "Accept"))],
        duration=30.0, seed=3)
    data = json.loads(json.dumps(schedule.to_dict()))
    restored = AttackSchedule.from_dict(data)
    assert restored == schedule
    # Tuple-valued params survive the JSON list round-trip.
    assert restored.steps[0].mtypes == ("Promise", "Accept")

    # Firing times that are not 6-decimal numbers come back exactly.
    thirds = concretize(("equivocation",), duration=100.0, start_after=10.0)
    assert [step.at for step in thirds.steps] == \
        [43.333333333333336, 76.66666666666667]
    data = json.loads(json.dumps(thirds.to_dict()))
    assert AttackSchedule.from_dict(data) == thirds


def test_trace_steps_come_back_as_one_shot_instances():
    schedule = concretize(("equivocation",), duration=60.0, seed=0,
                          start_after=6.0)
    faults = AttackSchedule.from_dict(schedule.to_dict()).steps
    assert len(faults) == 2
    for fault, step in zip(faults, schedule.steps):
        assert isinstance(fault, EquivocatingNode)
        assert fault.at == step.at
        assert fault.every is None  # one-shot, not periodic
        assert fault.duration == step.duration
        assert fault.rng_key == step.rng_key
        assert fault.mutator is None  # refilled by the live run


def test_trace_rejects_unknown_step_kinds():
    trace = {"steps": [{"kind": "no-such-fault", "at": 1.0}]}
    with pytest.raises(ValueError, match="unknown schedule step kind "
                                         "'no-such-fault'.*known kinds: "
                                         "clock-skew, crash-restart"):
        AttackSchedule.from_dict(trace)


# -- the full pipeline (ISSUE acceptance) ------------------------------------

@pytest.fixture(scope="module")
def agreement_attack():
    """The pinned acceptance hunt: equivocation vs paxos.agreement."""
    return find_attack(AttackConfig(
        system="paxos",
        property_id="paxos.agreement",
        faults=("equivocation",),
        seed=0,
    ))


def test_attack_finds_and_minimizes_agreement_violation(agreement_attack):
    result = agreement_attack
    assert result.found
    report = result.report
    assert report.property_id == "paxos.agreement"
    # The minimized trace is strictly smaller than the concretized
    # original (pinned: the 2-step equivocation preset shrinks to 1).
    assert report.original_steps == 2
    assert report.minimized_steps == 1
    assert report.minimized_steps < report.original_steps
    assert report.reductions  # at least one accepted reduction
    assert report.violation["property_id"] == "paxos.agreement"


def test_minimized_trace_replays_deterministically(agreement_attack):
    report = agreement_attack.report
    assert report.replay["verified"]
    assert report.replay["sim_time"] == report.violation["sim_time"]
    assert report.replay["state_digest"] == report.violation["state_digest"]
    assert report.replay["final_state_digest"] == report.final_state_digest


def test_attack_report_artifacts(tmp_path, agreement_attack):
    report = agreement_attack.report
    json_path, md_path = report.write(str(tmp_path))
    data = json.loads(open(json_path).read())
    assert data["found"] is True
    assert data["property"] == "paxos.agreement"
    assert len(data["trace"]["steps"]) == report.minimized_steps
    assert data["replay"]["verified"] is True
    assert "python -m repro attack paxos" in data["invocation"]
    markdown = open(md_path).read()
    assert "FALSIFIED" in markdown
    assert "## Minimized attack trace" in markdown
    assert "## Reproduction" in markdown


def test_benign_runs_do_not_observe_the_attack_machinery():
    # Without byzantine faults the rewrite hook must be invisible: the
    # same seed with and without the attack modules imported/none
    # installed stays bit-identical (goldens enforce the cross-PR half).
    from repro.api import Experiment
    from repro.backends import protocol_state_digest

    digests = {
        protocol_state_digest(
            Experiment("paxos").seed(0).duration(60).run().simulator)
        for _ in range(2)
    }
    assert len(digests) == 1


# -- CLI ---------------------------------------------------------------------

def test_cli_attack_unknown_property_exits_2(tmp_path, capsys):
    code = main(["attack", "paxos", "--property", "no.such.prop",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "no.such.prop" in capsys.readouterr().err


def test_cli_attack_unknown_system_exits_2(tmp_path, capsys):
    code = main(["attack", "nosystem", "--property", "paxos.agreement",
                 "--out", str(tmp_path)])
    assert code == 2


def test_cli_attack_not_found_exits_1_and_writes_report(tmp_path, capsys):
    # Attack seed 0 alone does not break agreement (the hunt needs seed 2),
    # so a 1-attempt budget is a cheap, deterministic not-found run.
    code = main(["attack", "paxos", "--property", "paxos.agreement",
                 "--faults", "equivocation", "--attempts", "1",
                 "--out", str(tmp_path), "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is False
    assert data["attempts"] == 1
    assert (tmp_path / "attack_paxos_paxos_agreement.md").exists()


# -- campaign attack mode ----------------------------------------------------

def test_campaign_expand_accepts_attack_cells():
    spec = CampaignSpec(systems=["paxos"], modes=("off", "attack"),
                        fault_presets=("equivocation",),
                        properties=("paxos.agreement",))
    runs = spec.expand()
    assert sorted(run.mode for run in runs) == ["attack", "off"]


@pytest.mark.parametrize("kwargs", [
    dict(modes=("attack",)),  # no fault axis
    dict(modes=("attack",), fault_presets=("equivocation",)),  # default props
    dict(modes=("attack",), fault_presets=("equivocation",),
         properties=("paxos.*",)),  # glob, not one id
    dict(modes=("attack",), fault_presets=("equivocation",),
         properties=("paxos.agreement",), backends=("tcp",)),  # non-sim
    dict(modes=("attack",), fault_presets=("equivocation",),
         properties=("paxos.agreement",), workloads=("submissions",)),
    # Settings the hunt's own runs would drop while the record kept them.
    *(dict(modes=("attack",), fault_presets=("equivocation",),
           properties=("paxos.agreement",), **setting)
      for setting in (dict(churn=True), dict(network={"rtt": 0.05}),
                      dict(fault_seed=3), dict(fault_seed=0),
                      dict(fault_start_after=5.0))),
])
def test_campaign_expand_refuses_malformed_attack_axes(kwargs):
    with pytest.raises(ValueError, match="attack mode"):
        CampaignSpec(systems=["paxos"], **kwargs).expand()


def test_campaign_attack_cell_attaches_verdict(monkeypatch):
    captured = {}

    def fake_find_attack(config):
        captured["config"] = config
        report = AttackReport(
            system=config.system, property_id=config.property_id,
            found=True, attempts=2, executions=5,
            original_schedule=AttackSchedule(
                steps=(EquivocatingNode(at=1.0),
                       EquivocatingNode(at=2.0))),
            minimized_schedule=AttackSchedule(
                steps=(EquivocatingNode(at=1.0),)),
            reductions=["drop-step"],
            replay={"verified": True},
        )
        return AttackResult(found=True, report=report,
                            run_report=RunReport(system=config.system))

    monkeypatch.setattr(attack_module, "find_attack", fake_find_attack)
    run = RunSpec(system="paxos", mode="attack",
                  faults=("equivocation",),
                  properties=("paxos.agreement",), seed=4)
    report = run_one(run)
    config = captured["config"]
    assert config.property_id == "paxos.agreement"
    assert config.seed == 4
    attack = report.outcome["attack"]
    assert attack["found"] is True
    assert "metrics" not in attack  # compact campaign form
    summary = summarize_report(report)
    assert summary["attack"] == {
        "found": True, "attempts": 2, "executions": 5,
        "original_steps": 2, "minimized_steps": 1,
        "reductions": ["drop-step"], "replay_verified": True,
    }
