"""No explicit builder setting is ever dropped silently.

``Experiment`` records what the caller set in ``_explicit``.  A scripted
scenario and a sweep each honor only part of the builder; both derive the
"ignored" warning from what they *do* carry, so a builder knob added later
is warned about by construction.  This test walks every name the builder
can record and checks exactly that — and fails when a new name has no
example here.
"""

import dataclasses
import inspect
import re
import warnings

import pytest

import repro.campaign
from repro.api import Experiment
from repro.campaign import RunSpec
from repro.core.controller import CheckingPolicy
from repro.mc.transition import TransitionConfig
from repro.obs import MemoryTracer
from repro.runtime import make_addresses

#: One builder call per name that can land in ``Experiment._explicit``.
EXAMPLES = {
    "nodes": lambda e: e.nodes(4),
    "duration": lambda e: e.duration(30.0),
    "max_events": lambda e: e.max_events(1000),
    "network": lambda e: e.network(rtt=0.05),
    "churn": lambda e: e.churn(True, interval=33.0),
    "faults": lambda e: e.faults("partition"),
    "engine": lambda e: e.crystalball("debug", engine="serial"),
    "transition": lambda e: e.crystalball(
        "debug", transition=TransitionConfig()),
    "portfolio": lambda e: e.crystalball("debug", portfolio=True),
    "immediate_check": lambda e: e.crystalball("debug", immediate_check=False),
    "check_filter_safety": lambda e: e.crystalball(
        "debug", check_filter_safety=False),
    "checking": lambda e: e.crystalball(
        "debug", checking=CheckingPolicy(period=2)),
    "delta_checkpoints": lambda e: e.crystalball(
        "debug", delta_checkpoints=True),
    "batched_control_plane": lambda e: e.crystalball(
        "debug", batched_control_plane=True),
    "checker_nodes": lambda e: e.crystalball(
        "debug", nodes=make_addresses(1)),
    "workload": lambda e: e.workload("probes"),
    "backend": lambda e: e.backend("tcp"),
    "properties": lambda e: e.properties("randtree.*"),
    "trace": lambda e: e.trace(MemoryTracer()),
    "metrics": lambda e: e.metrics(True),
    "incremental_monitor": lambda e: e.incremental_monitor(False),
}


def test_every_recordable_setting_has_an_example():
    recorded = set(re.findall(r'(?:_explicit\.add|_note)\("(\w+)"',
                              inspect.getsource(Experiment)))
    # crystalball() records its keyword settings in one loop; mode/config
    # are not settings, the budget lives in the config, and nodes= is
    # recorded (above) as "checker_nodes".
    recorded |= set(inspect.signature(Experiment.crystalball).parameters) - {
        "self", "mode", "config", "budget", "nodes"}
    assert recorded == set(EXAMPLES)


def _warned(record) -> str:
    return " ".join(str(warning.message) for warning in record)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_sweep_carries_the_setting_or_warns_about_it(name, monkeypatch):
    monkeypatch.setattr(repro.campaign, "run_campaign",
                        lambda spec, **_: spec.expand())
    experiment = Experiment("randtree")
    EXAMPLES[name](experiment)
    assert name in experiment._explicit
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        (cell,) = experiment.sweep()
    carried = {f.name for f in dataclasses.fields(RunSpec)} | {"metrics"}
    if name in carried:
        assert f"'{name}'" not in _warned(record)
        if name != "metrics":
            assert getattr(cell, name) != getattr(
                RunSpec(system="randtree"), name), "carried into the cell"
    else:
        assert f"'{name}'" in _warned(record)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_scenario_forwards_the_setting_or_warns_about_it(name):
    experiment = Experiment("randtree").scenario("partition-recovery")
    EXAMPLES[name](experiment)
    scenario = experiment.spec.scenario("partition-recovery")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        kwargs = experiment._scenario_kwargs(scenario)
    forwarded = {"nodes": "node_count", "duration": "max_time"}
    if name in forwarded:
        assert forwarded[name] in kwargs
        assert f"'{name}'" not in _warned(record)
    else:
        assert f"'{name}'" in _warned(record)
