"""End-to-end tests for the first-class workload API: Experiment.workload,
the report surface and the CLI flags."""

import json

import pytest

from repro.api import Experiment
from repro.api.cli import main
from repro.workload import TrafficSpec, WorkloadSpec


def _chord(seed=2):
    return (Experiment("chord")
            .nodes(10)
            .duration(140)
            .churn(False)
            .seed(seed))


def _chord_with_crashes():
    """Crashed targets are skipped, so a burst injects fewer than ``burst``."""
    return (Experiment("chord").nodes(8).duration(120).churn(False).seed(2)
            .faults("crash").mode("off")
            .workload("lookups", rate=16, burst=4, start=20))


def test_workload_by_name_drives_requests():
    for experiment, rate, skips in [
        (_chord().workload("lookups", rate=40, burst=4, start=40.0),
         40, False),
        (_chord_with_crashes(), 16, True),
    ]:
        report = experiment.metrics().run()
        assert report.workload["name"] == "lookups"
        assert report.requests_injected() > 0
        assert report.requests_completed() > 0
        assert report.to_dict()["workload"]["traffic"]["rate"] == rate
        assert (report.workload["requests_skipped"] > 0) is skips
        # The counter every campaign rollup reads counts what was injected.
        assert (report.metrics["counters"]["workload.requests_injected"]
                == report.requests_injected())


def test_an_unknown_workload_fails_fast():
    with pytest.raises(KeyError, match="known workloads"):
        Experiment("chord").workload("nope")
    # Every bundled system registers a default workload now; a bare spec
    # exercises the empty-registry message.
    from repro.api.registry import SystemSpec

    bare = SystemSpec(name="bare", summary="",
                      protocol_factory=lambda addrs, options: None,
                      properties=())
    with pytest.raises(KeyError, match="<none>"):
        bare.workload("lookups")


def test_workload_none_turns_the_stream_off():
    experiment = _chord().workload("lookups").workload(None)
    report = experiment.run()
    assert report.workload == {}
    assert "workload" not in report.to_dict()


def test_traffic_overrides_apply():
    experiment = _chord().workload("lookups", rate=500.0,
                                   distribution="uniform", keys=16)
    traffic = experiment._workload.traffic
    assert (traffic.rate, traffic.key_distribution, traffic.keys) \
        == (500.0, "uniform", 16)
    # Registered spec is untouched.
    assert Experiment("chord").spec.workload("lookups").traffic.rate == 200.0


def test_inline_workload_spec_accepted():
    def factory(rng, key, addresses):
        return addresses[0], "lookup", {"key": key}

    spec = WorkloadSpec(name="custom", description="inline",
                        make_request=factory,
                        traffic=TrafficSpec(rate=20.0, burst=2, start=50.0))
    report = _chord().workload(spec).run()
    assert report.workload["name"] == "custom"
    assert report.requests_injected() > 0


def test_workload_runs_are_seed_deterministic():
    def digest(seed):
        data = (_chord(seed)
                .workload("lookups", rate=30, burst=3, start=40.0)
                .run().to_dict())
        data.pop("wall_clock_seconds")
        return json.dumps(data, sort_keys=True)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_scenario_warns_about_ignored_workload():
    experiment = (Experiment("chord").scenario("figure10")
                  .workload("lookups"))
    with pytest.warns(UserWarning, match="workload"):
        experiment.run()


# ------------------------------------------------------------------- CLI


def test_cli_run_with_workload(capsys):
    assert main(["run", "chord", "--nodes", "8", "--duration", "120",
                 "--no-churn", "--mode", "off",
                 "--workload", "lookups", "--workload-rate", "50",
                 "--workload-burst", "5", "--workload-start", "40",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"]["name"] == "lookups"
    assert payload["workload"]["requests_injected"] > 0
    assert payload["workload"]["traffic"]["rate"] == 50


def test_cli_unknown_workload_fails_cleanly(capsys):
    assert main(["run", "chord", "--workload", "nope"]) == 2
    assert "known workloads" in capsys.readouterr().err


def test_cli_traffic_overrides_need_a_workload(capsys):
    assert main(["run", "chord", "--workload-rate", "50"]) == 2
    assert "--workload" in capsys.readouterr().err


def test_cli_list_shows_workloads(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in payload}
    assert "lookups" in by_name["chord"]["workloads"]
    assert "get-put" in by_name["kvstore"]["workloads"]
    assert "probes" in by_name["randtree"]["workloads"]
    assert "fetch" in by_name["bulletprime"]["workloads"]
