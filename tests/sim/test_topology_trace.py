"""Tests for topology generation and trace utilities."""

import random

from repro.obs import (
    MemoryTracer,
    ObsContext,
    filter_records,
    format_records,
    summarize_records,
)
from repro.runtime import Address, NetworkModel, Simulator, make_addresses
from repro.sim import InetTopology, TopologyConfig
from tests.runtime.test_simulator import EchoProtocol


def test_topology_latency_within_sane_bounds():
    topo = InetTopology(TopologyConfig(router_count=60, seed=1))
    addrs = make_addresses(10)
    topo.attach_clients(addrs)
    rng = random.Random(0)
    for _ in range(20):
        a, b = rng.sample(addrs, 2)
        latency = topo.latency(a, b, rng)
        assert 0 < latency < 2.0


def test_topology_mean_rtt_close_to_target():
    config = TopologyConfig(router_count=80, target_mean_rtt=0.13, seed=2)
    topo = InetTopology(config)
    addrs = make_addresses(20)
    topo.attach_clients(addrs)
    mean_rtt = topo.mean_rtt_estimate(addrs)
    assert 0.001 < mean_rtt < 1.0


def test_topology_network_model_integrates_with_simulator():
    topo = InetTopology(TopologyConfig(router_count=40, seed=3))
    addrs = make_addresses(2)
    topo.attach_clients(addrs)
    sim = Simulator(EchoProtocol, topo.network_model(), seed=1)
    for a in addrs:
        sim.add_node(a)
    sim.schedule_app(1.0, addrs[0], "ping", {"target": addrs[1]})
    sim.run(until=5.0)
    assert ("pong", addrs[1]) in sim.nodes[addrs[0]].state.received


def test_loss_probability_range():
    topo = InetTopology(TopologyConfig(router_count=30, seed=4))
    rng = random.Random(1)
    loss = topo.loss_probability(Address(1), Address(2), rng)
    assert 0.001 <= loss <= 0.005


def test_trace_summary_and_filtering():
    tracer = MemoryTracer()
    sim = Simulator(EchoProtocol, NetworkModel(), seed=1,
                    obs=ObsContext(tracer=tracer))
    addrs = make_addresses(2)
    for a in addrs:
        sim.add_node(a)
    sim.schedule_app(1.0, addrs[0], "ping", {"target": addrs[1]})
    sim.run(until=3.0)
    summary = summarize_records(tracer.records)
    assert summary.total_events == len(tracer.records) > 0
    assert summary.by_kind["event"] == sim.events_executed
    assert summary.duration() >= 0
    only_b = filter_records(tracer.records, node=str(addrs[1]), kind="event")
    assert only_b and all(rec["node"] == str(addrs[1]) for rec in only_b)
    text = format_records(tracer.records, limit=5)
    assert text.splitlines()


def test_trace_summary_empty():
    summary = summarize_records([])
    assert summary.total_events == 0 and summary.duration() == 0
