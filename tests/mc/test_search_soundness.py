"""Consequence prediction is sound with respect to the exhaustive search.

Both are the one loop of ``repro.mc.search`` with different successor
rules, so on every system: what consequence prediction visits and reports
is a subset of what the exhaustive search visits and reports, and every
predicted path really leads from the start state to the reported state.
"""

import pytest

from benchmarks.e2e.workloads import scripted_snapshot
from repro.core import consequence_prediction
from repro.mc import SearchBudget, find_errors
from tests.mc.test_parallel import _paxos_case, _violation_keys

SCRIPTED = [
    ("randtree", "figure2"),
    ("randtree", "figure9"),
    ("chord", "figure10"),
    ("chord", "figure11"),
    ("bulletprime", "shadow-map"),
    ("crdtset", "concurrent-ops"),
    ("kvstore", "stale-read"),
]


def _case(name):
    if name == "paxos/figure13":
        return _paxos_case()[:3]
    return scripted_snapshot(*name.split("/"))


@pytest.mark.parametrize(
    "name", [f"{system}/{scenario}" for system, scenario in SCRIPTED]
    + ["paxos/figure13"])
def test_consequence_prediction_is_a_sound_subset_of_exhaustive(name):
    system, start, properties = _case(name)
    budget = SearchBudget(max_states=None, max_depth=3,
                          record_visited_hashes=True)
    exhaustive = find_errors(system, start, properties, budget)
    predicted = consequence_prediction(system, start, properties, budget)

    assert predicted.stats.visited_hashes <= exhaustive.stats.visited_hashes
    assert _violation_keys(predicted) <= _violation_keys(exhaustive)
    for violation in predicted.violations + exhaustive.violations:
        state = start
        for event in violation.path:
            state = system.apply(state, event)
        assert state.state_hash() == violation.state_hash
        assert len(violation.path) == violation.depth
