"""Tests for TrafficSpec validation, KeySampler distributions and
WorkloadSpec overrides."""

import random
from collections import Counter

import pytest

from repro.runtime import make_addresses
from repro.workload import KEY_DISTRIBUTIONS, KeySampler, TrafficSpec, WorkloadSpec


def test_traffic_defaults_and_interval():
    traffic = TrafficSpec(rate=200.0, burst=20)
    assert traffic.interval == 0.1
    assert traffic.key_distribution in KEY_DISTRIBUTIONS


@pytest.mark.parametrize("bad", [
    {"rate": 0}, {"rate": -5.0}, {"burst": 0}, {"keys": 0},
    {"key_distribution": "pareto"},
])
def test_traffic_validation(bad):
    with pytest.raises(ValueError):
        TrafficSpec(**bad)


def test_with_overrides_applies_only_non_none():
    traffic = TrafficSpec(rate=100.0, burst=10, keys=64)
    tweaked = traffic.with_overrides(rate=500.0, burst=None, start=30.0)
    assert (tweaked.rate, tweaked.burst, tweaked.keys, tweaked.start) \
        == (500.0, 10, 64, 30.0)
    assert traffic.with_overrides() is traffic


def test_to_dict_is_json_shaped():
    data = TrafficSpec(rate=50.0, duration=120.0).to_dict()
    assert data["rate"] == 50.0 and data["duration"] == 120.0


def _samples(distribution, n=4000, keys=100, seed=7, **kwargs):
    sampler = KeySampler(TrafficSpec(key_distribution=distribution,
                                     keys=keys, **kwargs))
    rng = random.Random(seed)
    return [sampler.sample(rng) for _ in range(n)]


def test_uniform_covers_key_space():
    counts = Counter(_samples("uniform"))
    assert set(counts) == set(range(100))
    assert max(counts.values()) < 4 * min(counts.values())


def test_zipf_is_head_heavy():
    counts = Counter(_samples("zipf"))
    head = sum(counts[k] for k in range(10))
    assert head > 0.4 * 4000
    assert counts[0] > counts.get(50, 0)


def test_hotspot_concentrates_on_hot_prefix():
    counts = Counter(_samples("hotspot"))
    hot = sum(counts[k] for k in range(10))
    assert 0.8 * 4000 < hot < 4000  # ~90% to the hot 10%


def test_sequential_round_robins_without_rng():
    sampler = KeySampler(TrafficSpec(key_distribution="sequential", keys=3))
    rng = random.Random(0)
    before = rng.getstate()
    assert [sampler.sample(rng) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]
    assert rng.getstate() == before  # zero draws consumed


def test_distributions_consume_exactly_one_draw_per_key():
    # Changing the distribution must not shift the request factories' RNG
    # stream, so every non-sequential distribution draws exactly once.
    for distribution in ("uniform", "zipf", "hotspot"):
        sampler = KeySampler(TrafficSpec(key_distribution=distribution,
                                         keys=32))
        rng = random.Random(3)
        shadow = random.Random(3)
        sampler.sample(rng)
        shadow.random()
        assert rng.getstate() == shadow.getstate(), distribution


def test_workload_spec_with_traffic():
    def factory(rng, key, addresses):
        return addresses[0], "noop", {"key": key}

    spec = WorkloadSpec(name="w", description="d", make_request=factory,
                        traffic=TrafficSpec(rate=10.0),
                        completion_mtypes=frozenset({"Done"}))
    faster = spec.with_traffic(rate=100.0)
    assert faster.traffic.rate == 100.0
    assert faster.name == "w" and faster.make_request is factory
    assert spec.traffic.rate == 10.0  # frozen original untouched
    target, call, payload = faster.make_request(
        random.Random(0), 5, make_addresses(2))
    assert call == "noop" and payload == {"key": 5}
