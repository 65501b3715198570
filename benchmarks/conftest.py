"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper's
evaluation (Section 5).  Benchmarks are sized to run on a laptop in seconds
to minutes; run one with ``-s`` to see its table, and each file's docstring
states the paper's reported numbers it is to be compared with.
"""

from __future__ import annotations

import pytest

from repro.mc import SearchBudget, TransitionConfig, TransitionSystem


def make_system(protocol, *, resets=True, max_resets=1):
    return TransitionSystem(protocol, TransitionConfig(enable_resets=resets,
                                                       max_resets_per_node=max_resets))


@pytest.fixture
def experiment_budget():
    return SearchBudget(max_states=6000, max_depth=9)
