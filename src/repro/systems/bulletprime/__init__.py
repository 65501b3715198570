"""Bullet': a high-throughput file-distribution mesh (Section 5.2.3)."""

from .properties import ALL_PROPERTIES, FILE_MAP_CONSISTENCY, VIEW_SUBSET_OF_HAVE
from .protocol import (
    BLOCK,
    DIFF,
    DIFF_TIMER,
    DRAIN_TIMER,
    REQUEST_BLOCK,
    REQUEST_TIMER,
    BulletConfig,
    BulletPrime,
)
from .scenarios import build_mesh
from .state import BulletState

__all__ = [
    "ALL_PROPERTIES",
    "FILE_MAP_CONSISTENCY",
    "VIEW_SUBSET_OF_HAVE",
    "BLOCK",
    "DIFF",
    "DIFF_TIMER",
    "DRAIN_TIMER",
    "REQUEST_BLOCK",
    "REQUEST_TIMER",
    "BulletConfig",
    "BulletPrime",
    "build_mesh",
    "BulletState",
]
