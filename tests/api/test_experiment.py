"""The fluent Experiment builder: determinism at equal seeds and validation
of builder settings."""

import pytest

from repro.api import Experiment, get_system
from repro.core import Mode
from repro.mc import SearchBudget


def _builder_randtree(seed):
    return (Experiment("randtree")
            .nodes(4)
            .duration(120.0)
            .churn(interval=50.0)
            .network(rst_loss=0.6)
            .crystalball("debug",
                         budget=SearchBudget(max_states=200, max_depth=5))
            .options(max_children=2)
            .max_events(100_000)
            .seed(seed)
            .run())


def test_builder_is_deterministic_across_runs():
    first = _builder_randtree(seed=3)
    second = _builder_randtree(seed=3)
    assert first.totals() == second.totals()
    assert first.monitor == second.monitor


def test_ticks_convert_to_duration_via_tick_interval():
    experiment = Experiment("randtree").ticks(5)
    assert experiment._duration == 5 * get_system("randtree").tick_interval


def test_churn_rate_maps_to_interval():
    experiment = Experiment("randtree").churn(rate=0.1)
    assert experiment._churn_interval == pytest.approx(10.0)
    experiment.churn(False)
    assert experiment._churn_interval is None


def test_mode_parsing_accepts_strings_and_rejects_garbage():
    assert Experiment("randtree").mode("isc_only")._mode is Mode.ISC_ONLY
    assert Experiment("randtree").mode("steering")._mode is Mode.STEERING
    with pytest.raises(ValueError, match="unknown mode"):
        Experiment("randtree").mode("turbo")


def test_unknown_scenario_fails_fast():
    with pytest.raises(KeyError, match="known scenarios"):
        Experiment("chord").scenario("figure99")


def test_scenario_run_honors_builder_budget():
    report = (Experiment("randtree").scenario("figure2")
              .crystalball("debug",
                           budget=SearchBudget(max_states=100, max_depth=5))
              .run())
    assert report.outcome["states_visited"] <= 110, \
        "an explicit builder budget must reach the scenario search"


def test_scenario_run_warns_about_unsupported_builder_settings():
    experiment = (Experiment("randtree").scenario("figure2")
                  .network(rst_loss=0.5)
                  .options(max_states=500))
    with pytest.warns(UserWarning, match="ignores these builder settings"):
        experiment.run()


def test_scenario_run_warns_when_nodes_cannot_be_honored():
    # Figure 13's drive scripts three named roles.
    experiment = (Experiment("paxos").scenario("figure13-bug1")
                  .nodes(5).options(inter_round_delay=10.0))
    with pytest.warns(UserWarning, match="nodes"):
        report = experiment.run()
    assert report.node_count == 3


def test_offline_search_scenario_warns_about_steering_mode():
    experiment = (Experiment("randtree").scenario("figure2")
                  .mode("steering").options(max_states=200))
    with pytest.warns(UserWarning, match="no effect"):
        experiment.run()


def test_unknown_scenario_option_raises():
    with pytest.raises(ValueError, match="fixd"):
        (Experiment("randtree").scenario("figure2")
         .options(fixd=True).run())


def test_generic_bullet_run_reports_sortable_completion_times():
    report = (Experiment("bulletprime").nodes(4).duration(120.0)
              .options(block_count=8).seed(1).run())
    times = sorted(report.outcome["completion_times"].values())
    assert times and times[0] == 0.0, "the source completes at time zero"


def test_unknown_live_run_option_raises():
    with pytest.raises(ValueError, match="fix_recoverytimer"):
        (Experiment("randtree").nodes(3).duration(20.0).churn(False)
         .options(fix_recoverytimer=True).run())


def test_scenario_run_produces_search_outcome():
    report = (Experiment("randtree").scenario("figure2")
              .options(max_states=3000, max_depth=8).run())
    assert report.outcome["states_visited"] > 0
    assert "randtree.children_siblings_disjoint" \
        in report.outcome["properties_violated"]
    fixed = (Experiment("randtree").scenario("figure2")
             .options(fixed=True, max_states=3000, max_depth=8).run())
    assert "randtree.children_siblings_disjoint" \
        not in fixed.outcome["properties_violated"]
