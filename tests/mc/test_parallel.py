"""Parallel engine: serial/parallel equivalence, portfolio mode, budgets."""

import warnings

import pytest

from benchmarks.e2e.workloads import scripted_snapshot
from repro.core import CrystalBallConfig, attach_crystalball
from repro.core.consequence import consequence_prediction
from repro.mc import (
    GlobalState,
    ParallelEngine,
    PortfolioResult,
    SearchBudget,
    SearchKind,
    SearchStats,
    SerialEngine,
    TransitionConfig,
    TransitionSystem,
    find_errors,
    make_engine,
    run_portfolio,
)
from repro.mc.parallel.portfolio import (
    PORTFOLIO_WALKS,
    PORTFOLIO_WALL_CLOCK,
    PortfolioEngine,
)
from repro.obs import MetricsRegistry, ObsContext
from repro.runtime import Address, NetworkModel, Simulator, make_addresses
from repro.systems import bulletprime, chord, paxos, randtree
from repro.systems.bulletprime.protocol import DIFF_TIMER, REQUEST_TIMER


def _randtree_case():
    scenario = randtree.Figure2Scenario.build()
    system = TransitionSystem(
        scenario.protocol,
        TransitionConfig(enable_resets=True, max_resets_per_node=1))
    return system, scenario.global_state(), randtree.ALL_PROPERTIES, 4


def _chord_case():
    scenario = chord.Figure10Scenario.build()
    system = TransitionSystem(
        scenario.protocol,
        TransitionConfig(enable_resets=True, max_resets_per_node=1))
    return system, scenario.global_state(), chord.ALL_PROPERTIES, 3


def _paxos_case():
    a, b, c = make_addresses(3)
    protocol = paxos.Paxos(paxos.PaxosConfig(peers=(a, b, c),
                                             inject_bug1=True))
    states = {addr: protocol.initial_state(addr) for addr in (a, b, c)}
    states[a].pending_proposal = 0
    states[b].pending_proposal = 1
    system = TransitionSystem(protocol, TransitionConfig(enable_resets=False))
    return system, GlobalState.from_snapshot(states), paxos.ALL_PROPERTIES, 4


def _bulletprime_case():
    src, rcv = Address(1), Address(2)
    protocol = bulletprime.BulletPrime(bulletprime.BulletConfig(
        source=src, mesh={src: (rcv,), rcv: (src,)}, block_count=2,
        fix_shadow_map=False))
    states = {addr: protocol.initial_state(addr) for addr in (src, rcv)}
    timers = {src: [DIFF_TIMER], rcv: [REQUEST_TIMER]}
    system = TransitionSystem(protocol, TransitionConfig(enable_resets=False))
    return system, GlobalState.from_snapshot(states, timers=timers), \
        bulletprime.ALL_PROPERTIES, 4


CASES = {
    "randtree": _randtree_case,
    "chord": _chord_case,
    "paxos": _paxos_case,
    "bulletprime": _bulletprime_case,
    "crdtset": lambda: (*scripted_snapshot("crdtset", "concurrent-ops"), 3),
    "kvstore": lambda: (*scripted_snapshot("kvstore", "stale-read"), 3),
}


def _violation_keys(result):
    return {(v.violation.property_name, v.violation.node)
            for v in result.violations}


@pytest.mark.parametrize("case", sorted(CASES), ids=sorted(CASES))
def test_parallel_engine_equivalent_to_serial(case):
    """Same violations, same visited state-hash set, same depth histogram."""
    system, start, properties, depth = CASES[case]()
    budget = SearchBudget(max_states=None, max_depth=depth,
                          record_visited_hashes=True)

    serial = SerialEngine().run(system, start, properties, budget,
                                kind=SearchKind.EXHAUSTIVE)
    parallel = ParallelEngine(num_workers=2).run(
        system, start, properties, budget, kind=SearchKind.EXHAUSTIVE)

    assert _violation_keys(parallel) == _violation_keys(serial)
    assert parallel.stats.visited_hashes == serial.stats.visited_hashes
    assert parallel.stats.states_visited == serial.stats.states_visited
    assert parallel.stats.states_by_depth == serial.stats.states_by_depth
    # Breadth-first level synchronisation keeps reported depths minimal.
    assert ({(v.violation.property_name, v.violation.node, v.depth)
             for v in parallel.violations}
            == {(v.violation.property_name, v.violation.node, v.depth)
                for v in serial.violations})


def test_parallel_consequence_prediction_covers_serial():
    """Parallel Figure 8 merges localExplored at round boundaries, so it
    explores a superset of the serial pruning — never less."""
    system, start, properties, _ = _randtree_case()
    budget = SearchBudget(max_states=None, max_depth=5,
                          record_visited_hashes=True)
    serial = SerialEngine().run(system, start, properties, budget,
                                kind=SearchKind.CONSEQUENCE)
    parallel = ParallelEngine(num_workers=2).run(
        system, start, properties, budget, kind=SearchKind.CONSEQUENCE)
    assert _violation_keys(serial) <= _violation_keys(parallel)
    assert serial.stats.visited_hashes <= parallel.stats.visited_hashes


def test_parallel_engine_runs_with_deprecation_warnings_as_errors():
    """Forked workers inherit the warning filters, so a search worker that
    reaches anything deprecated dies with "search worker failed"."""
    system, start, properties, _ = _bulletprime_case()
    budget = SearchBudget(max_states=None, max_depth=3,
                          record_visited_hashes=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for kind in SearchKind:
            serial = SerialEngine().run(system, start, properties, budget,
                                        kind=kind)
            parallel = ParallelEngine(num_workers=2).run(
                system, start, properties, budget, kind=kind)
            assert _violation_keys(serial) <= _violation_keys(parallel)
            assert serial.stats.visited_hashes <= parallel.stats.visited_hashes
            if kind is SearchKind.EXHAUSTIVE:
                assert (parallel.stats.visited_hashes
                        == serial.stats.visited_hashes)


def test_coordinator_and_portfolio_fold_stats_with_the_same_merge(monkeypatch):
    system, start, properties, _ = _randtree_case()
    budget = SearchBudget(max_states=None, max_depth=3)
    folded = []
    merge = SearchStats.merge

    def recording_merge(self, other):
        folded.append(other)
        merge(self, other)

    monkeypatch.setattr(SearchStats, "merge", recording_merge)

    parallel = ParallelEngine(num_workers=2).run(system, start, properties,
                                                 budget)
    assert folded, "the coordinator folds each round reply with merge()"
    assert (sum(delta.states_visited for delta in folded)
            == parallel.stats.states_visited)
    assert (sum(delta.transitions_applied for delta in folded)
            == parallel.stats.transitions_applied)

    del folded[:]
    exhaustive = find_errors(system, start, properties, budget)
    predicted = SerialEngine().run(system, start, properties, budget,
                                   kind=SearchKind.CONSEQUENCE)
    merged = PortfolioResult(
        results={"exhaustive": exhaustive, "consequence": predicted},
        elapsed_seconds=1.5).merged_result(start)
    assert folded == [exhaustive.stats, predicted.stats]
    assert merged.stats.states_visited == (exhaustive.stats.states_visited
                                           + predicted.stats.states_visited)
    assert (merged.stats.internal_actions_skipped
            == predicted.stats.internal_actions_skipped > 0)
    assert merged.stats.elapsed_seconds == 1.5


def test_parallel_respects_max_states_budget():
    system, start, properties, _ = _randtree_case()
    result = ParallelEngine(num_workers=2).run(
        system, start, properties, SearchBudget(max_states=100, max_depth=None))
    assert result.stats.states_visited <= 100


def test_parallel_stop_at_first_violation():
    system, start, properties, _ = _randtree_case()
    full = ParallelEngine(num_workers=2).run(
        system, start, properties, SearchBudget(max_states=None, max_depth=4))
    early = ParallelEngine(num_workers=2).run(
        system, start, properties,
        SearchBudget(max_states=None, max_depth=4,
                     stop_at_first_violation=True))
    assert early.found_violation
    assert early.stats.states_visited < full.stats.states_visited


def test_queued_hash_set_prevents_duplicate_enqueues():
    """Satellite fix: in a completed search every enqueued state is visited
    exactly once — re-enqueues from different parents are counted as
    duplicates instead of growing the frontier."""
    system, start, properties, _ = _randtree_case()
    result = find_errors(system, start, properties,
                         SearchBudget(max_states=None, max_depth=4))
    assert result.stats.states_visited == result.stats.states_enqueued + 1
    assert result.stats.duplicate_states > 0
    assert result.stats.frontier_bytes == 0


def test_make_engine_specs():
    assert isinstance(make_engine(None), SerialEngine)
    assert isinstance(make_engine("serial"), SerialEngine)
    assert isinstance(make_engine("parallel"), ParallelEngine)
    engine = make_engine("parallel:3")
    assert isinstance(engine, ParallelEngine) and engine.num_workers == 3
    assert isinstance(make_engine("portfolio"), PortfolioEngine)
    with pytest.raises(ValueError):
        make_engine("quantum")
    with pytest.raises(ValueError):
        make_engine("parallel:abc")
    with pytest.raises(ValueError):
        make_engine("parallel:0")


def test_controller_selects_engine_from_config():
    """The controller builds its engine at attach, handing it the run's
    metrics registry."""
    def attached(config):
        addrs = make_addresses(2)
        protocol = randtree.RandTree(randtree.RandTreeConfig(
            bootstrap=(addrs[0],)))
        registry = MetricsRegistry()
        sim = Simulator(lambda: protocol, NetworkModel(), seed=1,
                        obs=ObsContext(metrics=registry))
        for addr in addrs:
            sim.add_node(addr)
        controllers = attach_crystalball(sim, randtree.ALL_PROPERTIES,
                                         config=config)
        return controllers[addrs[0]].engine, registry

    engine, registry = attached(CrystalBallConfig(engine="parallel:2"))
    assert isinstance(engine, ParallelEngine)
    assert engine.num_workers == 2 and engine.metrics is registry
    assert isinstance(attached(CrystalBallConfig())[0], SerialEngine)
    assert isinstance(attached(CrystalBallConfig(engine="portfolio"))[0],
                      PortfolioEngine)


def test_portfolio_finds_the_figure2_violation():
    system, start, properties, _ = _randtree_case()
    outcome = run_portfolio(system, start, properties,
                            SearchBudget(max_states=2000, max_depth=8),
                            wall_clock_seconds=60.0, walks=2)
    assert outcome.found_violation
    assert outcome.winner is not None
    names = {v.violation.property_name for v in outcome.union_violations()}
    assert "randtree.children_siblings_disjoint" in names
    merged = outcome.merged_result(start)
    assert merged.found_violation
    # One violation per (property, node) in the union.
    keys = [(v.violation.property_name, v.violation.node)
            for v in outcome.union_violations()]
    assert len(keys) == len(set(keys))


def test_parallel_rejects_event_filter_outside_consequence():
    system, start, properties, _ = _randtree_case()
    with pytest.raises(ValueError):
        ParallelEngine(num_workers=2).run(
            system, start, properties, SearchBudget(max_states=10),
            kind=SearchKind.EXHAUSTIVE, event_filter=lambda event: None)


def test_portfolio_engine_is_the_merged_portfolio():
    """``engine="portfolio"`` is one ``run`` over the race the controller
    used to start by hand: same violations, same states visited."""
    system, start, properties, _ = _randtree_case()
    budget = SearchBudget(max_states=400, max_depth=5)
    merged = run_portfolio(system, start, properties, budget,
                           wall_clock_seconds=PORTFOLIO_WALL_CLOCK,
                           walks=PORTFOLIO_WALKS).merged_result(start)
    engine = make_engine("portfolio").run(system, start, properties, budget,
                                          kind=SearchKind.CONSEQUENCE)
    assert merged.violations and engine.start_state is start
    assert ([(v.violation, v.path) for v in engine.violations]
            == [(v.violation, v.path) for v in merged.violations])
    assert engine.stats.states_visited == merged.stats.states_visited


def test_portfolio_reports_crashing_strategies():
    system, start, properties, _ = _randtree_case()

    def boom():
        raise RuntimeError("strategy exploded")

    outcome = run_portfolio(
        system, start, properties, wall_clock_seconds=30.0,
        strategies=[("boom", boom),
                    ("ok", lambda: find_errors(
                        system, start, properties,
                        SearchBudget(max_states=50, max_depth=3)))])
    assert "boom" in outcome.errors
    assert "strategy exploded" in outcome.errors["boom"]
    assert "ok" in outcome.results
    assert "boom" not in outcome.unfinished


def test_portfolio_predicts_what_consequence_prediction_misses():
    """Why portfolio mode exists (Section 5.3: the strategies surface
    different bugs).  From the Paxos bug-1 start state, under the
    controller's default budget, consequence prediction predicts nothing;
    the portfolio's seeded random walks reach the double choice."""
    system, start, properties, _ = _paxos_case()
    budget = CrystalBallConfig().search_budget
    predicted = consequence_prediction(system, start, properties, budget)
    assert not [v for v in predicted.violations if v.path]
    assert predicted.stats.states_visited == 1077

    outcome = run_portfolio(system, start, properties, budget,
                            walks=PORTFOLIO_WALKS)
    assert not outcome.unfinished and not outcome.errors
    finders = {name for name, result in outcome.results.items()
               if "paxos.at_most_one_value_chosen"
               in result.unique_property_names()}
    assert finders == {"walk-0", "walk-1"}
    merged = outcome.merged_result(start)
    assert "paxos.at_most_one_value_chosen" in merged.unique_property_names()
    assert merged.stats.states_visited == 5195
