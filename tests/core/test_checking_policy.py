"""Tests for sampled deep checking (CheckingPolicy) and delta-encoded
checkpoint accounting."""

import json
from dataclasses import dataclass, field
from hashlib import sha256

import pytest

from repro.api import Experiment
from repro.core.checkpoint import Checkpoint, PeerTransferCache
from repro.core.controller import CheckingPolicy, CrystalBallConfig
from repro.mc.search import SearchBudget
from repro.runtime import Address, NodeState, make_addresses
from repro.runtime.serialization import (
    compressed_size,
    delta_fields,
    delta_size,
)

# ------------------------------------------------------------ CheckingPolicy


def test_period_one_phase_is_always_zero():
    policy = CheckingPolicy()
    for addr in make_addresses(10):
        assert policy.phase(addr) == 0
        assert policy.checks_in_round(addr, 0)
        assert policy.checks_in_round(addr, 7)


def test_period_must_be_positive():
    with pytest.raises(ValueError):
        CheckingPolicy(period=0)


def test_phases_are_deterministic_and_spread():
    policy = CheckingPolicy(period=4, seed=3)
    addrs = make_addresses(64)
    phases = [policy.phase(a) for a in addrs]
    assert phases == [CheckingPolicy(period=4, seed=3).phase(a)
                      for a in addrs]
    # The sha1-based rotation spreads 64 nodes over all 4 phases.
    assert set(phases) == {0, 1, 2, 3}
    for phase, addr in zip(phases, addrs):
        assert policy.checks_in_round(addr, phase)
        assert not policy.checks_in_round(addr, phase + 1)
        assert policy.checks_in_round(addr, phase + 4)


def test_different_seed_rotates_differently():
    addrs = make_addresses(64)
    a = [CheckingPolicy(period=8, seed=0).phase(addr) for addr in addrs]
    b = [CheckingPolicy(period=8, seed=1).phase(addr) for addr in addrs]
    assert a != b


# ------------------------------------------------- sampled runs end to end


def _digest(report):
    data = report.to_dict()
    data.pop("wall_clock_seconds")
    return sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _run(checking=None, seed=5, duration=60):
    experiment = (Experiment("randtree")
                  .nodes(12)
                  .duration(duration)
                  .churn(False)
                  .seed(seed))
    kwargs = {"budget": SearchBudget(max_states=12, max_depth=2)}
    if checking is not None:
        kwargs["checking"] = checking
    experiment.crystalball("debug", **kwargs)
    return experiment.run()


def test_explicit_period_one_is_bit_identical_to_default():
    assert _digest(_run()) == _digest(_run(CheckingPolicy(period=1)))


def test_sampled_checking_runs_fewer_deep_checks():
    full = _run()
    sampled = _run(CheckingPolicy(period=4, seed=0))
    assert 0 < sampled.total("model_checker_runs") \
        < full.total("model_checker_runs")
    assert sampled.total("snapshots_collected") \
        < full.total("snapshots_collected")
    # Sampling also shrinks the control plane, not just CPU.
    assert sampled.checkpoint_bytes() < full.checkpoint_bytes()


def test_sampled_checking_is_seed_deterministic():
    policy = CheckingPolicy(period=3, seed=9)
    assert _digest(_run(policy)) == _digest(_run(policy))


def test_off_duty_controllers_still_answer_requests():
    # Even with a long period, on-duty nodes gather complete snapshots:
    # off-duty peers answer checkpoint requests on demand.
    sampled = _run(CheckingPolicy(period=6, seed=2), duration=200)
    assert sampled.total("checkpoint_responses_sent") > 0
    assert sampled.total("snapshots_collected") > 0
    assert sampled.total("incomplete_snapshots") == 0


def test_config_copy_preserves_scale_settings():
    config = CrystalBallConfig(checking=CheckingPolicy(period=5, seed=1),
                               delta_checkpoints=True,
                               udp_checkpoint_requests=True)
    copied = config.copy()
    assert copied.checking == config.checking
    assert copied.delta_checkpoints and copied.udp_checkpoint_requests


# ------------------------------------------------------------ delta encoding


@dataclass
class _State(NodeState):
    addr: Address = None
    counter: int = 0
    log: list = field(default_factory=list)
    table: dict = field(default_factory=dict)


def _state(addr, counter=0, log=(), table=()):
    return _State(addr=addr, counter=counter, log=list(log),
                  table=dict(table))


def test_delta_fields_names_only_changed_fields():
    a = make_addresses(1)[0]
    old = _state(a, counter=1, log=["x"] * 50)
    new = _state(a, counter=2, log=["x"] * 50)
    assert set(delta_fields(old, new)) == {"counter"}
    assert delta_fields(old, old.clone()) == {}
    assert delta_fields(old, 42) is None  # not field-wise comparable


def test_delta_size_is_small_for_small_changes():
    a = make_addresses(1)[0]
    old = _state(a, counter=1, log=["payload"] * 200)
    new = _state(a, counter=2, log=["payload"] * 200)
    assert delta_size(old, old.clone()) == 16  # identity fingerprint only
    assert delta_size(old, new) < compressed_size(new)
    # Disjoint states cost no more than a full send.
    other = _state(a, counter=9, log=["other"] * 200,
                   table={i: i for i in range(50)})
    assert delta_size(old, other) <= compressed_size(other) + 16


def test_checkpoint_delta_bytes_bounded_by_full_send():
    a = make_addresses(1)[0]
    old = _state(a, counter=1, log=["payload"] * 200)
    new = _state(a, counter=2, log=["payload"] * 200)
    checkpoint = Checkpoint(node=a, checkpoint_number=2, state=new,
                            timers=frozenset({"t"}))
    assert checkpoint.delta_bytes(None) == checkpoint.compressed_bytes()
    assert checkpoint.delta_bytes(old) < checkpoint.compressed_bytes()


def test_transfer_cache_delta_path_charges_less():
    a, b = make_addresses(2)
    old = _state(a, counter=1, log=["payload"] * 200)
    new = _state(a, counter=2, log=["payload"] * 200)

    plain = PeerTransferCache()
    plain.transfer_cost(b, Checkpoint(a, 1, old))
    full_resend = plain.transfer_cost(b, Checkpoint(a, 2, new))

    delta = PeerTransferCache()
    delta.transfer_cost(b, Checkpoint(a, 1, old), delta=True)
    delta_resend = delta.transfer_cost(b, Checkpoint(a, 2, new), delta=True)
    assert delta_resend < full_resend
    assert delta_resend < Checkpoint(a, 2, new).compressed_bytes()


def test_delta_checkpoints_flag_shrinks_control_bytes():
    # kvstore state carries a large static client script next to small
    # changing counters — exactly the shape delta encoding targets (only
    # the changed top-level fields travel).
    def run(delta):
        return (Experiment("kvstore")
                .nodes(5)
                .duration(200)
                .seed(4)
                .options(ops_per_node=40, keys=8)
                .crystalball("debug",
                             budget=SearchBudget(max_states=12, max_depth=2),
                             delta_checkpoints=delta)
                .run())

    plain, delta = run(False), run(True)
    assert delta.checkpoint_bytes() < plain.checkpoint_bytes() / 2
    # Accounting only: the run itself is otherwise unchanged.
    assert delta.total("snapshots_collected") \
        == plain.total("snapshots_collected")
