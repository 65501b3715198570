"""No explicit builder setting is ever dropped silently.

``Experiment`` records what the caller set in ``_explicit``.  A live
scenario is a preset folded under those settings, so it honours all of
them; an offline search honours only the budget and warns about every
other recorded name, so a builder knob added later is warned about by
construction.  This test walks every name the builder can record and
checks exactly that — and fails when a new name has no example here.  (A
campaign has no builder to drop settings from: a ``CampaignSpec`` field is
the only way to set a cell's value.)  A CrystalBall setting, in turn,
exists only while something outside ``tests/`` moves it off its default.
"""

import ast
import dataclasses
import inspect
import re
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from repro.api import Experiment, get_system
from repro.campaign import RunSpec
from repro.core.controller import CheckingPolicy, CrystalBallConfig
from repro.mc.search import SearchBudget
from repro.mc.transition import TransitionConfig
from repro.obs import MemoryTracer

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
        "debug", transition=TransitionConfig(enable_resets=False)),
    "checking": lambda e: e.crystalball(
        "debug", checking=CheckingPolicy(period=2)),
    "delta_checkpoints": lambda e: e.crystalball(
        "debug", delta_checkpoints=True),
    "udp_checkpoint_requests": lambda e: e.crystalball(
        "debug", udp_checkpoint_requests=True),
    "workload": lambda e: e.workload("probes"),
    "backend": lambda e: e.backend("tcp"),
    "properties": lambda e: e.properties("randtree.*"),
    "trace": lambda e: e.trace(MemoryTracer()),
    "metrics": lambda e: e.metrics(True),
}


def test_every_recordable_setting_has_an_example():
    recorded = set(re.findall(r'(?:_explicit\.add|_note)\("(\w+)"',
                              inspect.getsource(Experiment)))
    # crystalball() records its keyword settings in one loop; the mode is
    # not a setting and the budget is what a search scenario honours.
    recorded |= set(inspect.signature(Experiment.crystalball).parameters) - {
        "self", "mode", "budget"}
    assert recorded == set(EXAMPLES)


def _warned(record) -> str:
    return " ".join(str(warning.message) for warning in record)


def _controller_setting(field, expected):
    return lambda report: all(getattr(controller.config, field) == expected
                              for controller in report.controllers.values())


#: What each example visibly changes in a live run of randtree:flaky-network.
EFFECTS = {
    "nodes": lambda r: r.node_count == 4,
    "duration": lambda r: r.simulated_seconds <= 30.0,
    "max_events": lambda r: r.simulator.events_executed <= 1000,
    "network": lambda r: r.simulator.network.default_rtt == 0.05,
    "churn": lambda r: r.churn_events > 0,
    "faults": lambda r: "partition" in r.faults["by_type"],
    "engine": _controller_setting("engine", "serial"),
    "transition": lambda r: all(
        not controller.config.transition.enable_resets
        for controller in r.controllers.values()),
    "checking": lambda r: all(controller.config.checking.period == 2
                              for controller in r.controllers.values()),
    "delta_checkpoints": _controller_setting("delta_checkpoints", True),
    "udp_checkpoint_requests": _controller_setting("udp_checkpoint_requests",
                                                   True),
    "workload": lambda r: r.workload["requests_injected"] > 0,
    "backend": lambda r: r.backend == "tcp"
    and r.outcome["wire"]["frames_sent"] > 0,
    "properties": lambda r: len(r.live_monitor.properties) > len(
        get_system("randtree").properties),
    "trace": lambda r: r.simulator.obs.tracer.records[0]["scenario"]
    == "flaky-network",
    "metrics": lambda r: r.metrics["counters"]["runtime.events_executed"] > 0,
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_scenario_forwards_the_setting_or_warns_about_it(name):
    # A live scenario is a preset of the live path: the setting applies.
    live = (Experiment("randtree").scenario("flaky-network")
            .duration(70.0).seed(2))
    EXAMPLES[name](live)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = live.run()
    assert "ignores" not in _warned(record)
    assert report.scenario == "flaky-network"
    assert set(report.faults["by_type"]) >= {"message-delay", "link-flap"}, \
        "still the scenario"
    assert EFFECTS[name](report), "the setting took effect"

    # An offline search has no deployment to apply it to: it says so.
    search = Experiment("randtree").scenario("figure2").options(max_states=50)
    EXAMPLES[name](search)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        search.run()
    assert f"'{name}'" in _warned(record)


def test_a_search_scenario_honours_the_budget_and_nothing_else():
    experiment = (Experiment("randtree").scenario("figure2")
                  .crystalball("off", budget=SearchBudget(max_states=40,
                                                          max_depth=4)))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = experiment.run()
    assert not record
    assert report.outcome["states_visited"] <= 50
    assert report.outcome["max_depth_reached"] <= 4
    with pytest.warns(UserWarning, match=r"ignores .*'fault_seed'"):
        experiment.faults(seed=3).run()


def test_a_search_scenario_warns_that_it_drops_a_fault_start():
    experiment = (Experiment("randtree").scenario("figure2")
                  .crystalball("off", budget=SearchBudget(max_states=40))
                  .faults(start_after=5.0))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        experiment.run()
    assert [str(w.message) for w in record] == [
        "scenario 'figure2' runs a scripted schedule and ignores these "
        "builder settings: ['fault_start_after']"]


def test_a_former_driver_takes_every_builder_setting():
    """Figure 13 and the Bullet' download once built their own deployments
    and dropped most of the builder; they are live presets now."""
    assert {get_system(system).scenario(name).kind
            for system, name in (("paxos", "figure13-bug1"),
                                 ("paxos", "figure13-bug2"),
                                 ("bulletprime", "download"))} == {"live"}

    def download(configure=lambda experiment: experiment):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            report = configure(
                Experiment("bulletprime").scenario("download").nodes(5)
                .duration(150.0).options(block_count=4)).run()
        assert not record
        return report

    preset = download()
    assert preset.node_count == 5
    assert preset.outcome["duration"] <= 150.0
    assert preset.simulator.network.default_rtt == 0.13, "the scenario's"
    slow = download(lambda experiment: experiment.network(rtt=0.2))
    assert slow.simulator.network.default_rtt == 0.2
    assert (max(slow.outcome["completion_times"].values())
            > max(preset.outcome["completion_times"].values()))
    budgeted = download(lambda experiment: experiment.crystalball(
        "debug", budget=SearchBudget(max_states=10, max_depth=2)))
    assert {controller.config.search_budget.max_states
            for controller in budgeted.controllers.values()} == {10}
    assert budgeted.total("model_checker_runs") > 0
    with pytest.raises(ValueError, match="unknown option.*node_count"):
        (Experiment("bulletprime").scenario("download")
         .options(node_count=5).run())

    # Figure 13's budget is the scenario's unless one is set, and one bound
    # in a run record keeps the scenario's other bound.
    figure13 = Experiment("paxos").scenario("figure13-bug1")
    assert (figure13.default_budget().max_states,
            figure13.default_budget().max_depth) == (1500, 12)
    budget = RunSpec("paxos", scenario="figure13-bug1",
                     max_states=50).experiment()._budget()
    assert (budget.max_states, budget.max_depth) == (50, 12)


#: Controller settings no caller moves, kept because the paper names them.
PAPER_SETTINGS = {
    "checkpoint_quota": "Section 3.1, Managing Checkpoint Storage",
    "checkpoint_bandwidth_limit": "Section 3.1, Managing Bandwidth "
                                  "Consumption",
    "safety_budget": "Section 3.3, Ensuring Safety of Event Filter Actions",
}

_CONFIGURED = {"crystalball": Experiment.crystalball,
               "CrystalBallConfig": CrystalBallConfig}


def _scopes(tree: ast.AST):
    """The nodes of the module body and of each function body, each scope
    on its own (a local ``kwargs`` of one function is not another's)."""
    pending = [tree]
    while pending:
        nodes, stack = [], list(ast.iter_child_nodes(pending.pop()))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.append(node)
            else:
                nodes.append(node)
                stack.extend(ast.iter_child_nodes(node))
        yield nodes


def _settings_moved(scope: list) -> dict[str, set[str]]:
    """Per callable of ``_CONFIGURED``, the parameters some call in ``scope``
    gives a value other than the default: positional and keyword arguments,
    and the string keys stored in a dict the call ``**``-expands."""
    stored: dict[str, set[str]] = defaultdict(set)
    for node in scope:
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Subscript)):
            # cb_kwargs["engine"] = ...
            keyed, key = node.targets[0].value, node.targets[0].slice
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setdefault" and node.args):
            keyed, key = node.func.value, node.args[0]
        else:
            continue
        if isinstance(keyed, ast.Name) and isinstance(key, ast.Constant):
            stored[keyed.id].add(key.value)
    moved: dict[str, set[str]] = defaultdict(set)
    for node in scope:
        name = getattr(node, "func", None)
        name = getattr(name, "attr", getattr(name, "id", None))
        if not isinstance(node, ast.Call) or name not in _CONFIGURED:
            continue
        parameters = inspect.signature(_CONFIGURED[name]).parameters
        positional = [p for p in parameters if p != "self"]
        given = list(zip(positional, node.args)) + [
            (keyword.arg, keyword.value) for keyword in node.keywords]
        for parameter, value in given:
            if parameter is None:
                moved[name] |= stored[getattr(value, "id", None)]
            elif not (isinstance(value, ast.Constant)
                      and value.value == parameters[parameter].default):
                moved[name].add(parameter)
    return moved


def test_every_crystalball_setting_is_moved_by_a_caller_or_named_by_the_paper():
    repo = Path(__file__).resolve().parents[2]
    moved: dict[str, set[str]] = defaultdict(set)
    for directory in ("src", "benchmarks", "examples"):
        for path in sorted((repo / directory).rglob("*.py")):
            for scope in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
                for name, parameters in _settings_moved(scope).items():
                    moved[name] |= parameters
    keywords = set(inspect.signature(Experiment.crystalball).parameters) - {
        "self"}
    assert keywords - moved["crystalball"] == set(), \
        "a builder keyword nothing outside tests/ sets: make it a constant"
    # The builder is the only road to the config: a keyword moves the field
    # it is stored under.
    reached = set(moved["CrystalBallConfig"])
    for keyword in moved["crystalball"] - {"mode"}:
        reached |= set(
            Experiment("randtree").crystalball(**{keyword: True})._cb_kwargs)
    fields = {field.name for field in dataclasses.fields(CrystalBallConfig)}
    assert reached <= fields
    assert fields - reached == set(PAPER_SETTINGS), \
        "a config field nothing moves and the paper does not name"
