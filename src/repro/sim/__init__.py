"""Simulation support: INET-like topologies."""

from .topology import InetTopology, TopologyConfig

__all__ = ["InetTopology", "TopologyConfig"]
