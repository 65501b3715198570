"""Integration: the immediate safety check must not stop all progress.

Steering that prevents every join is the failure mode the paper's
filter-safety re-check exists to rule out.  The known case is pinned
here before anyone fixes it, so the fix shows up as an XPASS.
"""

import pytest

from repro.api import Experiment


def _joined(mode):
    report = Experiment("randtree").mode(mode).churn(False).seed(1).run()
    return sum(node.state.joined for node in report.simulator.nodes.values())


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP correctness item 2: "
    "`Experiment(\"randtree\").mode(\"isc-only\").churn(False).seed(1)` joins "
    "1 of 6 nodes — the ISC blocks the root's `Join` handler 200 times on "
    "`randtree.recovery_timer_running` and the report books 200 "
    "`violations_avoided`"))
def test_isc_only_keeps_at_least_half_the_progress_of_off():
    assert 2 * _joined("isc-only") >= _joined("off")
