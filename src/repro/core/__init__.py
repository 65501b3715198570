"""CrystalBall core: the paper's primary contribution.

* :func:`~repro.core.consequence.consequence_prediction` — the fast state
  exploration algorithm of Figure 8;
* the checkpoint manager and consistent neighbourhood snapshots
  (Sections 2.3 and 3.1);
* the per-node :class:`~repro.core.controller.CrystalBallController` with
  its deep-online-debugging and execution-steering modes, event filters,
  filter-safety re-checks, error-path replay and the immediate safety check.
"""

from .checkpoint import Checkpoint, CheckpointStore, PeerTransferCache
from .consequence import consequence_prediction
from .controller import (
    CrystalBallConfig,
    CrystalBallController,
    ControllerStats,
    Mode,
    attach_crystalball,
)
from .event_filter import EventFilter, derive_filter
from .immediate import ImmediateSafetyCheck
from .monitor import LivePropertyMonitor
from .replay import ReplayResult, replay_error_path
from .snapshot import NeighborhoodSnapshot
from .steering import (
    SteeringDecision,
    check_filter_safety,
    choose_steering_point,
    evaluate_violation,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "PeerTransferCache",
    "consequence_prediction",
    "CrystalBallConfig",
    "CrystalBallController",
    "ControllerStats",
    "Mode",
    "attach_crystalball",
    "EventFilter",
    "derive_filter",
    "ImmediateSafetyCheck",
    "LivePropertyMonitor",
    "ReplayResult",
    "replay_error_path",
    "NeighborhoodSnapshot",
    "SteeringDecision",
    "check_filter_safety",
    "choose_steering_point",
    "evaluate_violation",
]
