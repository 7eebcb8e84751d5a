"""Multi-GPU interconnect topologies.

The paper's Fig. 1 distinguishes two node architectures: GPUs attached to a
PCIe switch with no direct link (all GPU↔GPU traffic crosses the switch at
PCIe bandwidth) and GPUs with direct links (NVLink / Infinity Fabric).  We
represent a node's interconnect as a small :mod:`networkx` graph so the
collective engine can query per-pair bandwidth and so alternative topologies
(partial meshes, rings) can be modelled without touching the simulator.

Edges carry ``bandwidth`` (bytes/s, per direction) and ``latency`` (µs).  The
host↔GPU control path (kernel launches) always crosses PCIe and is modelled
separately in :class:`repro.sim.host.Host`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

import networkx as nx

from repro.errors import ConfigError
from repro.units import GBps, us

__all__ = ["InterconnectKind", "Topology", "nvlink_mesh", "pcie_switch"]


class InterconnectKind(enum.Enum):
    """The flavour of GPU↔GPU interconnect a topology models."""

    NVLINK = "nvlink"
    PCIE_SWITCH = "pcie_switch"
    CUSTOM = "custom"


@dataclass
class Topology:
    """A node-local GPU interconnect.

    Parameters
    ----------
    num_gpus:
        Number of GPU endpoints (vertices ``0..num_gpus-1``).
    kind:
        Interconnect flavour, used for reporting only.
    graph:
        Undirected graph over GPU ids; each edge must define ``bandwidth``
        (bytes/s per direction) and ``latency`` (µs).  A missing edge means
        traffic is routed through the switch vertex ``"switch"`` when present.
    allreduce_bus_bandwidth:
        Measured peak all-reduce *bus* bandwidth (bytes/s) in the NCCL-tests
        sense.  The paper reports 32.75 GB/s (V100 NVLink) and 14.88 GB/s
        (A100 PCIe); the ring all-reduce cost model consumes this directly so
        collective costs match the measured machine rather than a theoretical
        link sum.

    The graph is treated as immutable once the topology is built: pair
    queries (:meth:`p2p_path`, :meth:`p2p_latency`, :meth:`p2p_bandwidth`)
    are answered from per-pair tables filled by ``nx.shortest_path`` on
    each pair's first query.  Build a new topology instead of editing
    ``graph`` in place.
    """

    num_gpus: int
    kind: InterconnectKind
    graph: nx.Graph = field(repr=False)
    allreduce_bus_bandwidth: float = GBps(25.0)
    _paths: Dict[Tuple[int, int], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _latencies: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _bandwidths: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.allreduce_bus_bandwidth <= 0:
            raise ConfigError("allreduce_bus_bandwidth must be positive")
        for gpu in range(self.num_gpus):
            if gpu not in self.graph:
                raise ConfigError(f"topology graph is missing GPU vertex {gpu}")

    # ------------------------------------------------------------------
    # Pair queries
    # ------------------------------------------------------------------
    def p2p_path(self, src: int, dst: int) -> list:
        """Vertices traversed by a point-to-point transfer (inclusive)."""
        return list(self._path(src, dst))

    def p2p_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck bandwidth (bytes/s) between two GPUs."""
        if src == dst:
            raise ConfigError("p2p bandwidth is undefined for src == dst")
        path = self._path(src, dst)
        bandwidth = self._bandwidths.get((src, dst))
        if bandwidth is None:
            bandwidth = self._bandwidths[(src, dst)] = min(
                self.graph.edges[a, b]["bandwidth"] for a, b in zip(path, path[1:])
            )
        return bandwidth

    def p2p_latency(self, src: int, dst: int) -> float:
        """Accumulated hop latency (µs) between two GPUs."""
        if src == dst:
            return 0.0
        path = self._path(src, dst)
        latency = self._latencies.get((src, dst))
        if latency is None:
            latency = self._latencies[(src, dst)] = sum(
                self.graph.edges[a, b]["latency"] for a, b in zip(path, path[1:])
            )
        return latency

    def _path(self, src: int, dst: int) -> tuple:
        """Range-checked shortest path, computed once per ordered pair."""
        self._check_gpu(src)
        self._check_gpu(dst)
        path = self._paths.get((src, dst))
        if path is None:
            path = self._paths[(src, dst)] = tuple(
                nx.shortest_path(self.graph, src, dst)
            )
        return path

    def has_direct_link(self, src: int, dst: int) -> bool:
        """True when the two GPUs share an edge (no switch hop)."""
        self._check_gpu(src)
        self._check_gpu(dst)
        return self.graph.has_edge(src, dst)

    def gpu_ids(self) -> range:
        """The GPU vertex ids, ``range(num_gpus)``."""
        return range(self.num_gpus)

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise ConfigError(
                f"GPU id {gpu} out of range for {self.num_gpus}-GPU topology"
            )


def nvlink_mesh(
    num_gpus: int,
    *,
    link_bandwidth: float = GBps(25.0),
    link_latency: float = us(1.5),
    allreduce_bus_bandwidth: float = GBps(32.75),
) -> Topology:
    """Fully-connected NVLink mesh, the paper's V100 testbed shape.

    Each GPU pair gets a direct edge with ``link_bandwidth`` per direction
    (first-generation NVLink sustains ~25 GB/s per direction on a V100 pair).
    """
    g = nx.Graph()
    g.add_nodes_from(range(num_gpus))
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            g.add_edge(a, b, bandwidth=link_bandwidth, latency=link_latency)
    return Topology(
        num_gpus=num_gpus,
        kind=InterconnectKind.NVLINK,
        graph=g,
        allreduce_bus_bandwidth=allreduce_bus_bandwidth,
    )


def pcie_switch(
    num_gpus: int,
    *,
    lane_bandwidth: float = GBps(16.0),
    lane_latency: float = us(3.0),
    allreduce_bus_bandwidth: float = GBps(14.88),
) -> Topology:
    """GPUs hanging off one PCIe switch, the paper's A100 testbed shape.

    No direct GPU↔GPU edges exist; every transfer crosses the ``"switch"``
    vertex, bounded by a single PCIe lane bandwidth in each hop.
    """
    g = nx.Graph()
    g.add_nodes_from(range(num_gpus))
    g.add_node("switch")
    for gpu in range(num_gpus):
        g.add_edge(gpu, "switch", bandwidth=lane_bandwidth, latency=lane_latency)
    return Topology(
        num_gpus=num_gpus,
        kind=InterconnectKind.PCIE_SWITCH,
        graph=g,
        allreduce_bus_bandwidth=allreduce_bus_bandwidth,
    )
