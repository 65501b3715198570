"""The fluent Experiment builder: determinism at equal seeds and validation
of builder settings."""

import pytest

from repro.api import Experiment, get_system
from repro.core import Mode
from repro.mc import SearchBudget
from repro.obs import MemoryTracer


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


@pytest.mark.parametrize("length", [
    lambda experiment: experiment.duration(0),
    lambda experiment: experiment.duration(-5),
    lambda experiment: experiment.ticks(0),
])
def test_a_run_length_must_be_positive(length):
    # A negative length would run the simulated clock backwards.
    with pytest.raises(ValueError, match="positive duration"):
        length(Experiment("randtree"))


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


@pytest.mark.parametrize("configure, ends_at", [
    (lambda e: e.duration(90.0), 90.0),
    (lambda e: e.nodes(5), "named nodes A, B and C"),
    (lambda e: e.nodes(2), "named nodes A, B and C"),
    (lambda e: e.options(inter_round_delay=80.0), "at least 130 s"),
    (lambda e: e.options(inter_round_delay=80.0).duration(140.0), 140.0),
], ids=["duration", "nodes-5", "nodes-2", "delay-80", "delay-80-duration-140"])
def test_figure13_honours_the_builder_or_refuses_what_it_cannot_script(
        configure, ends_at):
    # Three named roles, and 40 s after the second proposal; a controller
    # mode keeps the queue busy, so the run ends at its duration.
    experiment = configure(Experiment("paxos").scenario("figure13-bug1")
                           .mode("isc-only").seed(1))
    if isinstance(ends_at, str):
        with pytest.raises(ValueError, match=ends_at):
            experiment.run()
    else:
        assert experiment.run().simulated_seconds == ends_at


@pytest.mark.parametrize("mode", ["off", "steering"])
def test_figure13_proposes_its_second_round_at_one_time_in_every_mode(mode):
    tracer = MemoryTracer()
    (Experiment("paxos").scenario("figure13-bug1").mode(mode).seed(1)
     .trace(tracer).run())
    proposals = [record["t"] for record in tracer.records
                 if record["kind"] == "event" and record["etype"] == "app"
                 and record["desc"].endswith("'propose'")]
    assert proposals == [1.0, 40.0]


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
