"""Tests for the checkpoint-number logical clock (Section 2.3)."""

from repro.runtime import LogicalClock


def test_observe_larger_number_forces_checkpoint():
    clock = LogicalClock()
    assert clock.observe(3) is True
    assert clock.value == 3
    assert clock.observe(4) is True
    assert clock.value == 4


def test_observe_smaller_or_equal_number_is_noop():
    clock = LogicalClock(value=5)
    assert clock.observe(5) is False
    assert clock.observe(2) is False
    assert clock.value == 5


def test_advance_increments_monotonically():
    clock = LogicalClock()
    assert clock.advance() == 1
    assert clock.advance() == 2
    assert clock.value == 2


def test_observe_request_future_number():
    clock = LogicalClock(value=1)
    assert clock.observe_request(4) is True
    assert clock.value == 4
    assert clock.observe_request(4) is False


def test_stamp_reflects_current_value():
    clock = LogicalClock()
    clock.advance()
    assert clock.stamp() == 1
