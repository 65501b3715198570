"""Unit tests for repro.mc.falsify with toy executors (no live runs)."""

from repro.mc import greedy_minimize


def _drop_one(candidate):
    """Propose every variant with one element removed."""
    for index in range(len(candidate)):
        yield candidate[:index] + candidate[index + 1:]


def test_greedy_minimize_reaches_the_1_minimal_core():
    # The "violation" needs both 3 and 5; everything else is noise.
    def execute(candidate):
        return "boom" if {3, 5} <= set(candidate) else None

    result = greedy_minimize(
        (1, 3, 2, 5, 4), "boom", [("drop", _drop_one)], execute)
    assert sorted(result.candidate) == [3, 5]
    assert result.evidence == "boom"
    assert result.reductions == ["drop"] * 3
    assert result.executions > 0


def test_greedy_minimize_keeps_original_when_nothing_shrinks():
    def execute(candidate):
        return "boom" if len(candidate) >= 3 else None

    result = greedy_minimize(
        (1, 2, 3), "orig", [("drop", _drop_one)], execute)
    assert result.candidate == (1, 2, 3)
    assert result.evidence == "orig"
    assert result.reductions == []


def test_greedy_minimize_stops_at_the_execution_budget():
    calls = []

    def execute(candidate):
        calls.append(candidate)
        return "boom"  # everything "violates": unbounded greed

    result = greedy_minimize(
        tuple(range(10)), "boom", [("drop", _drop_one)], execute,
        max_executions=4)
    assert result.executions == 4
    assert len(calls) == 4
    # Each accepted reduction dropped exactly one element.
    assert len(result.candidate) == 10 - len(result.reductions)


def test_greedy_minimize_tries_reducers_in_order():
    accepted = []

    def execute(candidate):
        return "boom"

    def noop(candidate):
        return iter(())  # proposes nothing; next reducer gets its turn

    def shrink(candidate):
        if candidate:
            yield candidate[1:]

    result = greedy_minimize(
        (1, 2), "boom", [("noop", noop), ("shrink", shrink)], execute)
    assert result.candidate == ()
    assert result.reductions == ["shrink", "shrink"]
