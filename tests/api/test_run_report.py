"""RunReport structure, the full stats surface, and the shared run config."""

import dataclasses
import json

import pytest

from repro.api import Experiment, RunReport
from repro.core import ControllerStats, CrystalBallConfig, Mode, attach_crystalball
from repro.mc import SearchBudget, TransitionConfig
from repro.runtime import NetworkModel, Simulator, make_addresses
from repro.systems.randtree import ALL_PROPERTIES, RandTree, RandTreeConfig


def _small_run(mode="debug"):
    return (Experiment("randtree")
            .nodes(3)
            .duration(60.0)
            .churn(False)
            .crystalball(mode, budget=SearchBudget(max_states=100, max_depth=4))
            .seed(2)
            .run())


def test_node_reports_carry_the_full_controller_stats_surface():
    report = _small_run()
    stat_fields = {f.name for f in dataclasses.fields(ControllerStats)}
    for node in report.nodes:
        assert stat_fields <= set(node.stats), (
            "RunReport must expose every ControllerStats counter, including "
            "the ones the old report() omitted")
        assert isinstance(node.stats["distinct_violations"], list)


def test_run_report_round_trips_through_json():
    report = _small_run()
    payload = json.loads(report.to_json())
    assert payload["system"] == "randtree"
    assert payload["totals"]["ticks"] == report.total("ticks")
    assert payload["accounting"]["violations_avoided"] \
        == report.total_steered() + report.total_isc_blocks()
    # Live handles are not serialized.
    assert "simulator" not in payload
    assert "controllers" not in payload


def test_aggregation_helpers_match_controller_sums():
    report = _small_run()
    assert report.total_predicted() == sum(
        c.stats.violations_predicted for c in report.controllers.values())
    assert report.checkpoint_bytes() == sum(
        c.stats.checkpoint_bytes_sent for c in report.controllers.values())


def test_attach_crystalball_shares_one_frozen_config():
    addrs = make_addresses(3)
    protocol_config = RandTreeConfig(bootstrap=(addrs[0],))
    sim = Simulator(lambda: RandTree(protocol_config), NetworkModel(), seed=1)
    for addr in addrs:
        sim.add_node(addr)
    shared = CrystalBallConfig(
        mode=Mode.DEBUG,
        search_budget=SearchBudget(max_states=123, max_depth=4),
        transition=TransitionConfig(enable_resets=True),
    )
    controllers = attach_crystalball(sim, ALL_PROPERTIES, config=shared)
    assert all(c.config is shared for c in controllers.values())
    # A value no node can adjust, so sharing it leaks nothing.
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.search_budget.max_states = 1
    assert shared.search_budget.max_states == 123


def test_empty_report_accounting_is_zeroed():
    report = RunReport(system="custom")
    assert report.totals()["violations_predicted"] == 0
    assert report.accounting()["violations_avoided"] == 0
    json.loads(report.to_json())
