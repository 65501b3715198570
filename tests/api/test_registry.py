"""Registry round-trip tests for the unified experiment API."""

import pytest

from repro.api import (
    ScenarioSpec,
    SystemSpec,
    get_system,
    list_systems,
    register_system,
    unregister_system,
)
from repro.runtime import Protocol

BUNDLED = ("bulletprime", "chord", "crdtset", "kvstore", "paxos", "randtree")


def test_all_bundled_systems_are_registered():
    names = [spec.name for spec in list_systems()]
    for name in BUNDLED:
        assert name in names


@pytest.mark.parametrize("name", BUNDLED)
def test_get_system_round_trip(name):
    spec = get_system(name)
    assert spec.name == name
    assert spec.properties, "every system declares safety properties"
    assert spec.scenarios, "every system registers named scenarios"
    assert get_system(name) is spec


@pytest.mark.parametrize("name", BUNDLED)
def test_protocol_factory_builds_protocols(name):
    spec = get_system(name)
    import repro.runtime as runtime
    addresses = runtime.make_addresses(max(spec.default_nodes, 2))
    factory = spec.protocol_factory(addresses, {})
    protocol = factory()
    assert isinstance(protocol, Protocol)
    # The factory is reusable: every node gets its own call.
    assert isinstance(factory(), Protocol)


@pytest.mark.parametrize("name", BUNDLED)
def test_transition_factory_returns_fresh_configs(name):
    spec = get_system(name)
    assert spec.transition_factory() is not spec.transition_factory()


def test_scenario_lookup_rejects_unknown_names():
    spec = get_system("randtree")
    with pytest.raises(KeyError, match="figure2"):
        spec.scenario("no-such-scenario")


def test_get_system_rejects_unknown_names():
    with pytest.raises(KeyError, match="randtree"):
        get_system("no-such-system")


def test_register_and_unregister_custom_system():
    spec = SystemSpec(
        name="custom-test-system",
        summary="registry round-trip fixture",
        protocol_factory=lambda addresses, options: (lambda: None),
        properties=get_system("randtree").properties,
        scenarios={"noop": ScenarioSpec(name="noop", description="-")},
    )
    try:
        register_system(spec)
        assert get_system("custom-test-system") is spec
        with pytest.raises(ValueError, match="already registered"):
            register_system(SystemSpec(
                name="custom-test-system", summary="clash",
                protocol_factory=spec.protocol_factory,
                properties=spec.properties))
    finally:
        unregister_system("custom-test-system")
    with pytest.raises(KeyError):
        get_system("custom-test-system")
