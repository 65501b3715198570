"""Parallel model-checking engine.

Everything needed to spread a :class:`~repro.mc.transition.TransitionSystem`
search over multiple cores:

* :class:`~repro.mc.parallel.engine.SearchEngine` — the engine abstraction,
  with :class:`~repro.mc.parallel.engine.SerialEngine` (seed behaviour) and
  :func:`~repro.mc.parallel.engine.make_engine` (config-spec parsing);
* :class:`~repro.mc.parallel.sharded.ParallelEngine` — sharded-frontier BFS
  over a forked worker pool, each shard running the visit and successors
  code of :class:`repro.mc.search.Explorer` that the serial loop runs;
* :func:`~repro.mc.parallel.portfolio.run_portfolio` — race exhaustive
  search, consequence prediction and random walks from one snapshot (the
  ``"portfolio"`` engine).
"""

from ..search import SearchKind
from .engine import SearchEngine, SerialEngine, make_engine
from .portfolio import PortfolioResult, default_strategies, run_portfolio
from .sharded import ParallelEngine

__all__ = [
    "SearchEngine",
    "SearchKind",
    "SerialEngine",
    "make_engine",
    "ParallelEngine",
    "PortfolioResult",
    "default_strategies",
    "run_portfolio",
]
