"""The default backend: the discrete-event simulator, bit-identical.

:class:`SimBackend` *is* :class:`~repro.runtime.simulator.Simulator` — no
overrides, no behavioral delta.  It exists so backend selection has a class
to name and a place to validate (the sim backend takes no options), and so
the golden-equivalence suite can assert the refactor cost nothing: the
24-node report digests captured before the backend API existed must keep
matching runs built through :func:`repro.backends.make_backend`.
"""

from __future__ import annotations

from ..runtime.simulator import Simulator
from .base import register_backend


class SimBackend(Simulator):
    """Simulated transport: the pre-backend runtime, unchanged."""


register_backend("sim", SimBackend)
