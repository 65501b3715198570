"""CrystalBall core: the paper's primary contribution.

* :func:`~repro.core.consequence.consequence_prediction` — the fast state
  exploration algorithm of Figure 8;
* the checkpoint manager and consistent neighbourhood snapshots
  (Sections 2.3 and 3.1);
* the per-node :class:`~repro.core.controller.CrystalBallController` with
  its deep-online-debugging and execution-steering modes and the immediate
  safety check.

One record carries a prediction from the search to the runtime: a
:class:`~repro.mc.search.PredictedViolation` comes out of consequence
prediction or out of :func:`~repro.core.replay.replay_error_path` on a
remembered path, :func:`~repro.core.steering.steering_filter` reads the
local node's first refusable handler off its path as an
:class:`~repro.core.event_filter.EventFilter`, and the controller installs
it once :func:`~repro.core.steering.check_filter_safety` passes.
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
from .event_filter import EventFilter
from .immediate import ImmediateSafetyCheck
from .monitor import LivePropertyMonitor
from .replay import replay_error_path
from .snapshot import NeighborhoodSnapshot
from .steering import check_filter_safety, steering_filter

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
    "ImmediateSafetyCheck",
    "LivePropertyMonitor",
    "replay_error_path",
    "NeighborhoodSnapshot",
    "check_filter_safety",
    "steering_filter",
]
