"""First-class workload descriptions: traffic shape and request synthesis.

The heavy-traffic axis of the scale story (ROADMAP: "millions of simulated
requests").  A :class:`TrafficSpec` describes the *shape* of an open-loop
request stream — rate, burstiness, key popularity, start offset and
duration — and a :class:`WorkloadSpec` binds a shape to a system-specific
request factory plus the message types that mark request completion.
Systems register named workloads on their
:class:`~repro.api.registry.SystemSpec` exactly the way scenarios are
registered, and experiments select them end to end::

    report = (Experiment("chord")
              .nodes(1000)
              .workload("lookups", rate=2000, burst=50)
              .run())
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from ..runtime.address import Address

#: ``make_request(rng, key, addresses) -> (target, app call, payload)`` —
#: synthesize one request for ``key`` against the deployment's members.
RequestFactory = Callable[
    [random.Random, int, Sequence[Address]],
    tuple[Address, str, Mapping[str, Any]]]

#: Key-popularity models an open-loop generator can draw from.
KEY_DISTRIBUTIONS = ("uniform", "zipf", "hotspot", "sequential")

#: Skew exponent of the ``zipf`` distribution.
ZIPF_S = 1.1

#: Fraction of the key space receiving 90% of ``hotspot`` traffic.
HOTSPOT_FRACTION = 0.1


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of an open-loop request stream.

    Parameters
    ----------
    rate:
        Target request rate in requests per simulated second.
    burst:
        Requests injected per generator wakeup.  The wakeup interval is
        ``burst / rate``, so a larger burst trades scheduling overhead
        (one heap entry per burst, not per request) for coarser pacing.
    key_distribution:
        ``uniform`` | ``zipf`` | ``hotspot`` | ``sequential`` popularity
        over the key space (see :data:`ZIPF_S`, :data:`HOTSPOT_FRACTION`).
    keys:
        Size of the key space.
    start:
        Offset in simulated seconds before the stream opens (lets the
        overlay finish joining first).
    duration:
        Length of the stream in simulated seconds; ``None`` runs until the
        end of the experiment.
    """

    rate: float = 100.0
    burst: int = 10
    key_distribution: str = "uniform"
    keys: int = 1024
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("TrafficSpec.rate must be positive")
        if self.burst < 1:
            raise ValueError("TrafficSpec.burst must be >= 1")
        if self.keys < 1:
            raise ValueError("TrafficSpec.keys must be >= 1")
        if self.key_distribution not in KEY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown key distribution {self.key_distribution!r} "
                f"(one of: {', '.join(KEY_DISTRIBUTIONS)})")

    @property
    def interval(self) -> float:
        """Seconds between generator wakeups."""
        return self.burst / self.rate

    def with_overrides(self, **overrides: Any) -> "TrafficSpec":
        """Copy with the non-``None`` overrides applied."""
        changes = {key: value for key, value in overrides.items()
                   if value is not None}
        return replace(self, **changes) if changes else self

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "key_distribution": self.key_distribution,
            "keys": self.keys,
            "start": self.start,
            "duration": self.duration,
        }


class KeySampler:
    """Seedable key-popularity sampler for one traffic spec.

    All distributions consume exactly one RNG draw per key (``sequential``
    consumes none), so changing the distribution never shifts the RNG
    stream consumed by the request factories.
    """

    def __init__(self, traffic: TrafficSpec) -> None:
        self.traffic = traffic
        self._index = 0
        self._zipf_cdf: Optional[list[float]] = None
        if traffic.key_distribution == "zipf":
            weights = [1.0 / (rank + 1) ** ZIPF_S
                       for rank in range(traffic.keys)]
            total = sum(weights)
            cumulative, running = [], 0.0
            for weight in weights:
                running += weight / total
                cumulative.append(running)
            self._zipf_cdf = cumulative

    def sample(self, rng: random.Random) -> int:
        traffic = self.traffic
        distribution = traffic.key_distribution
        if distribution == "sequential":
            key = self._index % traffic.keys
            self._index += 1
            return key
        draw = rng.random()
        if distribution == "uniform":
            return int(draw * traffic.keys) % traffic.keys
        if distribution == "zipf":
            assert self._zipf_cdf is not None
            return min(bisect.bisect_left(self._zipf_cdf, draw),
                       traffic.keys - 1)
        # hotspot: 90% of requests hit the hot prefix of the key space.
        hot = max(1, int(traffic.keys * HOTSPOT_FRACTION))
        if draw < 0.9:
            return int(draw / 0.9 * hot) % traffic.keys
        return (hot + int((draw - 0.9) / 0.1 * max(1, traffic.keys - hot))) \
            % traffic.keys


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload of a registered system.

    Binds a :class:`TrafficSpec` shape to the system-specific request
    factory and names the message types whose delivery marks a request as
    completed (empty for workloads whose operations complete locally).
    """

    name: str
    description: str
    make_request: RequestFactory
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    completion_mtypes: frozenset[str] = frozenset()

    def with_traffic(self, **overrides: Any) -> "WorkloadSpec":
        """Copy with traffic-shape overrides applied."""
        return replace(self, traffic=self.traffic.with_overrides(**overrides))
