"""Tests for the network model and connection tables."""

import random

from repro.runtime import Address, ConnectionTable, NetworkModel


def test_latency_positive_and_near_default_rtt():
    net = NetworkModel(default_rtt=0.1, jitter=0.0)
    rng = random.Random(0)
    latency = net.latency(Address(1), Address(2), rng)
    assert abs(latency - 0.05) < 1e-9


def test_latency_to_self_is_negligible():
    net = NetworkModel()
    assert net.latency(Address(1), Address(1), random.Random(0)) < 0.001


def test_loss_probability_in_modelnet_range():
    net = NetworkModel()
    rng = random.Random(1)
    for _ in range(50):
        loss = net.loss_probability(Address(1), Address(2), rng)
        assert 0.001 <= loss <= 0.005


def test_partitions_block_and_heal():
    net = NetworkModel()
    a, b = Address(1), Address(2)
    assert net.reachable(a, b)
    net.partition(a, b)
    assert not net.reachable(a, b)
    assert not net.reachable(b, a)
    net.heal(a, b)
    assert net.reachable(a, b)


def test_isolate_and_heal_all():
    net = NetworkModel()
    a, others = Address(1), [Address(2), Address(3)]
    net.isolate(a, others + [a])
    assert not net.reachable(a, Address(2))
    assert not net.reachable(a, Address(3))
    net.heal_all()
    assert net.reachable(a, Address(2))


def test_custom_loss_function_is_clamped():
    net = NetworkModel(loss_fn=lambda s, d, r: 2.0)
    rng = random.Random(0)
    assert net.loss_probability(Address(1), Address(2), rng) == 1.0


def test_connection_table_lifecycle():
    table = ConnectionTable()
    peer = Address(9)
    assert peer not in table.peers
    table.establish(peer, peer_incarnation=2)
    assert peer in table.peers
    assert table.recorded_incarnation(peer) == 2
    assert table.close(peer) is True
    assert table.close(peer) is False


def test_connection_table_close_all_returns_peers():
    table = ConnectionTable()
    table.establish(Address(1), 0)
    table.establish(Address(2), 1)
    assert set(table.close_all()) == {Address(1), Address(2)}
    assert table.peers == {}

