"""Multi-GPU interconnect topologies.

The paper's Fig. 1 distinguishes two node architectures: GPUs attached to a
PCIe switch with no direct link (all GPU↔GPU traffic crosses the switch at
PCIe bandwidth) and GPUs with direct links (NVLink / Infinity Fabric).  We
represent a node's interconnect as a plain link table over GPU ids and an
optional ``"switch"`` vertex, so the collective engine can query per-pair
bandwidth and so alternative topologies (partial meshes, rings) can be
modelled without touching the simulator.  A breadth-first search over the
table routes every GPU pair once, when the topology is built.

Each link carries ``bandwidth`` (bytes/s, per direction) and ``latency``
(µs).  The host↔GPU control path (kernel launches) always crosses PCIe and
is modelled separately in :class:`repro.sim.host.Host`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Tuple

from repro.errors import ConfigError
from repro.units import GBps, us

__all__ = ["InterconnectKind", "Link", "Topology", "nvlink_mesh", "pcie_switch"]


class InterconnectKind(enum.Enum):
    """The flavour of GPU↔GPU interconnect a topology models."""

    NVLINK = "nvlink"
    PCIE_SWITCH = "pcie_switch"
    CUSTOM = "custom"


class Link(NamedTuple):
    """One undirected interconnect link."""

    #: Bytes/s in each direction.
    bandwidth: float
    #: Hop latency in µs.
    latency: float


@dataclass
class Topology:
    """A node-local GPU interconnect.

    Parameters
    ----------
    num_gpus:
        Number of GPU endpoints (vertices ``0..num_gpus-1``).
    kind:
        Interconnect flavour, used for reporting only.
    links:
        Undirected links keyed by their two end vertices: GPU ids, or any
        other hashable (such as ``"switch"``) for a vertex that is not a
        GPU.  Each value is a :class:`Link` (or a ``(bandwidth, latency)``
        pair).  Two GPUs without a link between them route through other
        vertices, e.g. the switch.
    allreduce_bus_bandwidth:
        Measured peak all-reduce *bus* bandwidth (bytes/s) in the NCCL-tests
        sense.  The paper reports 32.75 GB/s (V100 NVLink) and 14.88 GB/s
        (A100 PCIe); the ring all-reduce cost model consumes this directly so
        collective costs match the measured machine rather than a theoretical
        link sum.

    Construction routes every ordered GPU pair by breadth-first search
    (fewest hops) and stores its path, summed latency and bottleneck
    bandwidth; pair queries (:meth:`p2p_path`, :meth:`p2p_latency`,
    :meth:`p2p_bandwidth`) read that table.  Build a new topology instead
    of editing ``links`` in place.
    """

    num_gpus: int
    kind: InterconnectKind
    links: Dict[Tuple[Hashable, Hashable], Link] = field(repr=False)
    allreduce_bus_bandwidth: float = GBps(25.0)
    _adjacent: Dict[Hashable, Dict[Hashable, Link]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``(src, dst) -> (path, latency, bandwidth)`` for every connected pair.
    _routes: Dict[Tuple[int, int], Tuple[tuple, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.allreduce_bus_bandwidth <= 0:
            raise ConfigError("allreduce_bus_bandwidth must be positive")
        links: Dict[Tuple[Hashable, Hashable], Link] = {}
        adjacent: Dict[Hashable, Dict[Hashable, Link]] = {
            gpu: {} for gpu in range(self.num_gpus)
        }
        for (a, b), spec in self.links.items():
            for vertex in (a, b):
                if isinstance(vertex, int) and not 0 <= vertex < self.num_gpus:
                    raise ConfigError(
                        f"link endpoint {vertex} is not a GPU of the "
                        f"{self.num_gpus}-GPU topology"
                    )
            if a == b:
                raise ConfigError(f"link ({a!r}, {b!r}) is a self-loop")
            link = Link(*spec)
            if link.bandwidth <= 0 or link.latency < 0:
                raise ConfigError(
                    f"link ({a!r}, {b!r}) needs bandwidth > 0 and latency >= 0"
                )
            links[a, b] = link
            adjacent.setdefault(a, {})[b] = link
            adjacent.setdefault(b, {})[a] = link
        self.links = links
        self._adjacent = adjacent
        for src in range(self.num_gpus):
            self._route_from(src)

    def _route_from(self, src: int) -> None:
        """Breadth-first search from ``src``; record a route to each GPU."""
        parent: Dict[Hashable, Hashable] = {src: src}
        frontier: List[Hashable] = [src]
        while frontier:
            reached = []
            for vertex in frontier:
                for neighbour in self._adjacent[vertex]:
                    if neighbour not in parent:
                        parent[neighbour] = vertex
                        reached.append(neighbour)
            frontier = reached
        for dst in range(self.num_gpus):
            if dst == src or dst not in parent:
                continue
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            path.reverse()
            hops = [self._adjacent[a][b] for a, b in zip(path, path[1:])]
            self._routes[src, dst] = (
                tuple(path),
                sum(link.latency for link in hops),
                min(link.bandwidth for link in hops),
            )

    # ------------------------------------------------------------------
    # Pair queries
    # ------------------------------------------------------------------
    def p2p_path(self, src: int, dst: int) -> list:
        """Vertices traversed by a point-to-point transfer (inclusive)."""
        if src == dst:
            self._check_gpu(src)
            return [src]
        return list(self._route(src, dst)[0])

    def p2p_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck bandwidth (bytes/s) between two GPUs."""
        if src == dst:
            raise ConfigError("p2p bandwidth is undefined for src == dst")
        return self._route(src, dst)[2]

    def p2p_latency(self, src: int, dst: int) -> float:
        """Accumulated hop latency (µs) between two GPUs."""
        if src == dst:
            return 0.0
        return self._route(src, dst)[1]

    def _route(self, src: int, dst: int) -> Tuple[tuple, float, float]:
        route = self._routes.get((src, dst))
        if route is None:
            self._check_gpu(src)
            self._check_gpu(dst)
            raise ConfigError(f"no path between GPU {src} and GPU {dst}")
        return route

    def has_direct_link(self, src: int, dst: int) -> bool:
        """True when the two GPUs share a link (no switch hop)."""
        self._check_gpu(src)
        self._check_gpu(dst)
        return dst in self._adjacent[src]

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

    Each GPU pair gets a direct link with ``link_bandwidth`` per direction
    (first-generation NVLink sustains ~25 GB/s per direction on a V100 pair).
    """
    link = Link(link_bandwidth, link_latency)
    return Topology(
        num_gpus=num_gpus,
        kind=InterconnectKind.NVLINK,
        links={
            (a, b): link
            for a in range(num_gpus)
            for b in range(a + 1, num_gpus)
        },
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

    No direct GPU↔GPU links exist; every transfer crosses the ``"switch"``
    vertex, bounded by a single PCIe lane bandwidth in each hop.
    """
    lane = Link(lane_bandwidth, lane_latency)
    return Topology(
        num_gpus=num_gpus,
        kind=InterconnectKind.PCIE_SWITCH,
        links={(gpu, "switch"): lane for gpu in range(num_gpus)},
        allreduce_bus_bandwidth=allreduce_bus_bandwidth,
    )
