"""Tests for the CrystalBall controller attached to a live simulation."""

from repro.api.report import NodeReport
from repro.core import (
    CrystalBallConfig,
    LivePropertyMonitor,
    Mode,
    attach_crystalball,
)
from repro.mc import SearchBudget, TransitionConfig
from repro.runtime import NetworkModel, Simulator, make_addresses
from repro.systems.randtree import ALL_PROPERTIES, RandTree, RandTreeConfig


def _build_sim(n=3, seed=1, mode=Mode.DEBUG, max_states=300, bootstrap_index=0,
               fix_recovery_timer=False, **config_settings):
    addrs = make_addresses(n)
    protocol_config = RandTreeConfig(bootstrap=(addrs[bootstrap_index],),
                                     max_children=2,
                                     fix_recovery_timer=fix_recovery_timer)
    sim = Simulator(lambda: RandTree(protocol_config), NetworkModel(),
                    seed=seed, tick_interval=10.0)
    for a in addrs:
        sim.add_node(a)
    config = CrystalBallConfig(
        mode=mode,
        search_budget=SearchBudget(max_states=max_states, max_depth=6),
        transition=TransitionConfig(enable_resets=True, max_resets_per_node=1),
        **config_settings,
    )
    controllers = attach_crystalball(sim, ALL_PROPERTIES, config=config)
    for i, a in enumerate(addrs):
        sim.schedule_app(1.0 + 3 * i, a, "join", {})
    return sim, addrs, controllers


def test_controllers_collect_snapshots_and_run_model_checker():
    sim, addrs, controllers = _build_sim()
    sim.run(until=80.0)
    total_runs = sum(c.stats.model_checker_runs for c in controllers.values())
    total_snapshots = sum(c.stats.snapshots_collected for c in controllers.values())
    assert total_runs > 0
    assert total_snapshots > 0
    assert all(c.stats.checkpoints_taken > 0 for c in controllers.values())


def test_checkpoint_requests_and_responses_flow():
    sim, addrs, controllers = _build_sim()
    sim.run(until=80.0)
    requests = sum(c.stats.checkpoint_requests_sent for c in controllers.values())
    responses = sum(c.stats.checkpoint_responses_sent for c in controllers.values())
    assert requests > 0
    assert responses > 0
    assert sum(c.stats.checkpoint_bytes_sent for c in controllers.values()) > 0


def test_checkpoint_bandwidth_limit_turns_answers_into_refusals():
    # Section 3.1, "Managing Bandwidth Consumption": a node over its
    # checkpoint budget answers negatively instead of shipping state.
    sim, addrs, controllers = _build_sim(checkpoint_bandwidth_limit=1)
    sim.run(until=80.0)
    stats = [c.stats for c in controllers.values()]
    assert sum(s.negative_responses_sent for s in stats) > 0
    assert sum(s.incomplete_snapshots for s in stats) > 0
    # A byte per tick buys one answer per node before the budget is spent;
    # the unlimited run answers every request.
    unlimited_sim, _, unlimited = _build_sim()
    unlimited_sim.run(until=80.0)
    assert sum(c.stats.negative_responses_sent
               for c in unlimited.values()) == 0
    assert (sum(s.checkpoint_responses_sent for s in stats)
            < sum(c.stats.checkpoint_responses_sent
                  for c in unlimited.values()))


def test_debug_mode_predicts_violations_after_reset():
    sim, addrs, controllers = _build_sim(seed=2)
    sim.network.rst_loss_probability = 1.0
    sim.schedule_reset(30.0, addrs[2])
    sim.run(until=120.0)
    predicted = sum(c.stats.violations_predicted for c in controllers.values())
    assert predicted > 0
    # Debug mode never installs filters.
    assert all(c.stats.filters_installed == 0 for c in controllers.values())


def test_steering_mode_installs_filters_and_reduces_inconsistencies():
    # Bootstrap through the middle node so the Figure 2 topology forms (the
    # smallest node takes over the root role); the recovery-timer bug is
    # assumed fixed so the remaining inconsistencies are the steerable ones.
    sim, addrs, controllers = _build_sim(seed=2, mode=Mode.STEERING,
                                         max_states=800, bootstrap_index=1,
                                         fix_recovery_timer=True)
    LivePropertyMonitor(ALL_PROPERTIES).install(sim)
    sim.network.rst_loss_probability = 1.0
    sim.schedule_reset(60.0, addrs[2])
    sim.run(until=200.0)
    predicted = sum(c.stats.violations_predicted for c in controllers.values())
    installed = sum(c.stats.filters_installed for c in controllers.values())
    isc_blocks = sum(c.stats.isc_blocks for c in controllers.values())
    assert predicted > 0
    # The predicted inconsistency is acted upon: either an event filter was
    # installed ahead of time or the immediate safety check blocked it.
    assert installed + isc_blocks > 0
    report = NodeReport.from_controller(controllers[addrs[0]])
    assert report.mode == "steering"
    assert "filters_installed" in report.stats


def test_off_mode_controller_is_inert():
    addrs = make_addresses(2)
    protocol_config = RandTreeConfig(bootstrap=(addrs[0],))
    sim = Simulator(lambda: RandTree(protocol_config), NetworkModel(), seed=1,
                    tick_interval=5.0)
    for a in addrs:
        sim.add_node(a)
    config = CrystalBallConfig(mode=Mode.OFF)
    controllers = attach_crystalball(sim, ALL_PROPERTIES, config=config)
    sim.schedule_app(1.0, addrs[1], "join", {})
    sim.run(until=30.0)
    assert all(c.stats.model_checker_runs == 0 for c in controllers.values())


def test_live_property_monitor_counts_inconsistencies():
    addrs = make_addresses(2)
    protocol_config = RandTreeConfig(bootstrap=(addrs[0],))
    sim = Simulator(lambda: RandTree(protocol_config), NetworkModel(), seed=1)
    for a in addrs:
        sim.add_node(a)
    monitor = LivePropertyMonitor(ALL_PROPERTIES).install(sim)
    for i, a in enumerate(addrs):
        sim.schedule_app(1.0 + i, a, "join", {})
    sim.run(until=30.0)
    # The buggy bootstrap join leaves the root without a recovery timer, which
    # the live monitor notices as soon as another node joins under it.
    assert monitor.events_checked > 0
    report = monitor.report()
    assert report["inconsistent_states"] >= 0
    assert isinstance(report["properties_violated"], list)
