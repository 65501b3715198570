"""Tests for churn injection."""

import pytest

from repro.runtime import ChurnProcess, NetworkModel, Simulator, make_addresses
from tests.runtime.test_simulator import EchoProtocol


def test_churn_requires_nodes_and_positive_interval():
    with pytest.raises(ValueError):
        ChurnProcess(nodes=[])
    with pytest.raises(ValueError):
        ChurnProcess(nodes=make_addresses(1), mean_interval=0)


def test_churn_injects_resets_over_time():
    sim = Simulator(EchoProtocol, NetworkModel(), seed=2)
    addrs = make_addresses(5)
    for a in addrs:
        sim.add_node(a)
    churn = ChurnProcess(nodes=addrs, mean_interval=10.0, seed=3)
    churn.install(sim)
    sim.run(until=200.0)
    assert churn.events_injected > 5
    assert sum(n.stats.resets for n in sim.nodes.values()) == churn.events_injected


def test_churn_stop_after_bound():
    sim = Simulator(EchoProtocol, NetworkModel(), seed=2)
    addrs = make_addresses(3)
    for a in addrs:
        sim.add_node(a)
    churn = ChurnProcess(nodes=addrs, mean_interval=5.0, seed=1, stop_after=50.0)
    churn.install(sim)
    sim.run(until=500.0)
    assert churn.events_injected <= 15

