"""Integration tests: CrystalBall attached to live simulated deployments."""

from repro.api import Experiment
from repro.core import Mode
from repro.mc import SearchBudget


def _randtree_experiment(mode, seed=9, duration=200.0, nodes=5):
    # Bootstrap through the second-smallest node so root handovers occur
    # (the Figure 2 topology); the recovery-timer bug is assumed fixed so the
    # steerable inconsistencies are the remaining ones.
    return (Experiment("randtree")
            .nodes(nodes)
            .duration(duration)
            .churn(interval=50.0)
            .network(rst_loss=0.6)
            .crystalball(mode,
                         budget=SearchBudget(max_states=300, max_depth=6))
            .options(bootstrap_index=1, max_children=2,
                     fix_recovery_timer=True)
            .max_events(120_000)
            .seed(seed)
            .run())


def test_deep_online_debugging_finds_randtree_inconsistencies():
    report = _randtree_experiment(Mode.DEBUG)
    assert report.total_predicted() > 0
    found = set().union(*(controller.stats.distinct_violations
                          for controller in report.controllers.values()))
    assert any(name.startswith("randtree.") for name in found)
    # Checkpoint traffic flowed between the nodes.
    assert report.checkpoint_bytes() > 0


def test_execution_steering_changes_behavior_in_live_run():
    report = _randtree_experiment(Mode.STEERING)
    acted = (report.total_predicted() + report.total_steered()
             + report.total_isc_blocks() + report.total_filter_triggers())
    assert acted > 0


def test_paxos_bug1_violation_without_crystalball_and_avoidance_with():
    baseline = (Experiment("paxos").scenario("figure13-bug1")
                .mode(Mode.OFF).seed(21)
                .options(inter_round_delay=15.0).run())
    assert baseline.outcome["violation_occurred"]
    steered = (Experiment("paxos").scenario("figure13-bug1")
               .mode(Mode.STEERING).seed(21)
               .options(inter_round_delay=15.0).run())
    assert not steered.outcome["violation_occurred"]
    assert steered.outcome["avoided_by_steering"] \
        or steered.outcome["avoided_by_isc"]
