"""Shared helpers for the paper benches.

Every ``bench_*`` file here except the nightly scale run checks one table
or figure of the paper's evaluation (Section 5), sized to run on a laptop
in seconds to minutes.  A bench computes its values and reports each claim as
one :class:`~benchmarks.scorecard.Row` through the ``scorecard`` fixture;
``python -m benchmarks.scorecard`` runs them all and renders
``SCORECARD.md``.  Each file's docstring and ``SIZES`` state the paper's
setup and the one used here.
"""

from __future__ import annotations

import pytest

from repro.mc import TransitionConfig, TransitionSystem

from .scorecard import Row


def make_system(protocol, *, resets=True, max_resets=1):
    return TransitionSystem(protocol, TransitionConfig(enable_resets=resets,
                                                       max_resets_per_node=max_resets))


@pytest.fixture
def scorecard(record_property):
    """``assert scorecard(claim, source, quantity, paper, repo, unit, holds)``:
    records the row for the renderer, whatever the verdict, and hands
    ``holds`` back to the assert."""
    def row(*fields) -> bool:
        record_property("scorecard", Row(*fields))
        return fields[-1]

    return row
