"""Tests for topologies and collective cost models."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigError
from repro.hw import InterconnectKind, Link, Topology, nvlink_mesh, pcie_switch
from repro.sim.interconnect import CollectiveCostModel, NcclConfig
from repro.units import GB, GBps, us


class TestTopology:
    def test_nvlink_mesh_direct_links(self):
        t = nvlink_mesh(4)
        assert t.kind is InterconnectKind.NVLINK
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert t.has_direct_link(a, b)

    def test_pcie_switch_routes_through_switch(self):
        t = pcie_switch(4)
        assert not t.has_direct_link(0, 1)
        assert t.p2p_path(0, 1) == [0, "switch", 1]

    def test_pcie_bottleneck_bandwidth(self):
        t = pcie_switch(4, lane_bandwidth=GBps(16.0))
        assert t.p2p_bandwidth(0, 1) == GBps(16.0)

    def test_latency_accumulates_over_hops(self):
        t = pcie_switch(4, lane_latency=us(3.0))
        assert t.p2p_latency(0, 1) == pytest.approx(6.0)
        nv = nvlink_mesh(4, link_latency=us(1.5))
        assert nv.p2p_latency(0, 3) == pytest.approx(1.5)

    def test_same_gpu_latency_zero(self):
        t = nvlink_mesh(2)
        assert t.p2p_latency(1, 1) == 0.0

    def test_invalid_gpu_id_rejected(self):
        t = nvlink_mesh(2)
        with pytest.raises(ConfigError):
            t.p2p_latency(0, 5)

    def test_p2p_bandwidth_same_gpu_rejected(self):
        t = nvlink_mesh(2)
        with pytest.raises(ConfigError):
            t.p2p_bandwidth(0, 0)

    @pytest.mark.parametrize(
        "links",
        [
            {(0, 2): Link(GBps(10.0), us(1.0))},  # endpoint is not a GPU
            {(-1, "switch"): Link(GBps(10.0), us(1.0))},
            {(1, 1): Link(GBps(10.0), us(1.0))},  # self-loop
            {(0, 1): Link(0.0, us(1.0))},
            {(0, 1): Link(GBps(10.0), -1.0)},
        ],
    )
    def test_malformed_links_rejected(self, links):
        with pytest.raises(ConfigError):
            Topology(num_gpus=2, kind=InterconnectKind.CUSTOM, links=links)

    def test_plain_pairs_become_links(self):
        t = Topology(
            num_gpus=2, kind=InterconnectKind.CUSTOM,
            links={(0, 1): (GBps(10.0), us(2.0))},
        )
        assert t.links[0, 1] == Link(bandwidth=GBps(10.0), latency=us(2.0))
        assert t.p2p_bandwidth(1, 0) == GBps(10.0)


def partial_ring(num_gpus: int = 4) -> Topology:
    """A ring with its last link missing: 0–1–2–3, distinct link costs."""
    links = {
        (a, a + 1): Link(GBps(10.0 + a), us(1.0 + 0.25 * a))
        for a in range(num_gpus - 1)
    }
    return Topology(num_gpus=num_gpus, kind=InterconnectKind.CUSTOM, links=links)


TOPOLOGIES = {
    "nvlink_mesh": lambda: nvlink_mesh(4),
    "pcie_switch": lambda: pcie_switch(4),
    "partial_ring": partial_ring,
}


class TestPairTables:
    """Pair queries are answered from per-pair tables; every answer must be
    what networkx gives on a graph of the same links, on the first query and
    every later one."""

    @staticmethod
    def _reference(topo, src, dst):
        graph = nx.Graph()
        graph.add_nodes_from(topo.gpu_ids())
        for (a, b), link in topo.links.items():
            graph.add_edge(a, b, bandwidth=link.bandwidth, latency=link.latency)
        path = nx.shortest_path(graph, src, dst)
        hops = list(zip(path, path[1:]))
        return (
            path,
            sum(graph.edges[a, b]["latency"] for a, b in hops),
            min(graph.edges[a, b]["bandwidth"] for a, b in hops),
        )

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_matches_networkx_on_every_pair(self, name):
        topo = TOPOLOGIES[name]()
        for _ in range(3):  # cold tables, then warm ones
            for src in topo.gpu_ids():
                for dst in topo.gpu_ids():
                    if src == dst:
                        assert topo.p2p_latency(src, dst) == 0.0
                        continue
                    path, latency, bandwidth = self._reference(topo, src, dst)
                    assert topo.p2p_path(src, dst) == path
                    assert topo.p2p_latency(src, dst) == latency
                    assert topo.p2p_bandwidth(src, dst) == bandwidth

    def test_partial_ring_routes_around_missing_link(self):
        topo = partial_ring()
        assert topo.p2p_path(3, 0) == [3, 2, 1, 0]
        assert topo.p2p_bandwidth(0, 3) == GBps(10.0)
        assert topo.p2p_latency(0, 3) == us(1.0) + us(1.25) + us(1.5)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_out_of_range_rejected_cold_and_warm(self, name):
        topo = TOPOLOGIES[name]()
        for _ in range(2):
            for bad in ((0, 4), (4, 0), (-1, 1), (1, 9)):
                with pytest.raises(ConfigError):
                    topo.p2p_path(*bad)
                with pytest.raises(ConfigError):
                    topo.p2p_latency(*bad)
                with pytest.raises(ConfigError):
                    topo.p2p_bandwidth(*bad)
            topo.p2p_latency(0, 1)  # warm a pair before the second pass

    def test_mutating_returned_path_does_not_leak(self):
        topo = pcie_switch(4)
        path = topo.p2p_path(0, 1)
        path.append("bogus")
        path[0] = 7
        assert topo.p2p_path(0, 1) == [0, "switch", 1]
        assert topo.p2p_path(0, 1) is not topo.p2p_path(0, 1)
        assert topo.p2p_latency(0, 1) == pytest.approx(6.0)

    def test_disconnected_pair_fails_at_query_time(self):
        links = {(0, 1): Link(GBps(10.0), us(1.0))}
        topo = Topology(num_gpus=3, kind=InterconnectKind.CUSTOM, links=links)
        assert topo.p2p_latency(0, 1) == us(1.0)
        for _ in range(2):
            with pytest.raises(ConfigError, match="no path"):
                topo.p2p_latency(0, 2)


class TestNcclConfig:
    def test_default_occupancy_much_larger_than_reduced(self):
        default = NcclConfig()
        reduced = default.reduced()
        assert reduced.occupancy < default.occupancy / 2

    def test_reduced_keeps_full_bandwidth(self):
        # The whole point of §3.5: fewer channels already saturate the link.
        assert NcclConfig().reduced().bandwidth_fraction == 1.0

    def test_below_saturation_derates(self):
        cfg = NcclConfig(max_nchannels=1, saturation_channels=3)
        assert cfg.bandwidth_fraction == pytest.approx(1 / 3)

    def test_invalid_channels_rejected(self):
        with pytest.raises(ConfigError):
            NcclConfig(max_nchannels=0)


class TestCollectiveCosts:
    def setup_method(self):
        self.topo = nvlink_mesh(4, allreduce_bus_bandwidth=GBps(32.75))
        self.ccm = CollectiveCostModel(self.topo)

    def test_allreduce_scales_with_bytes(self):
        small = self.ccm.allreduce_duration(1e6, [0, 1, 2, 3])
        big = self.ccm.allreduce_duration(16e6, [0, 1, 2, 3])
        assert big > small

    def test_allreduce_single_rank_free(self):
        assert self.ccm.allreduce_duration(1e9, [0]) == 0.0

    def test_allreduce_transfer_term_matches_ring_formula(self):
        size = GB(1.0)
        p = 4
        d = self.ccm.allreduce_duration(size, list(range(p)))
        transfer = (2 * (p - 1) / p) * size / GBps(32.75) * 1e6
        # latency terms are small against a 1GB payload
        assert d == pytest.approx(transfer, rel=0.01)

    def test_allreduce_slower_on_pcie(self):
        pcie = CollectiveCostModel(pcie_switch(4, allreduce_bus_bandwidth=GBps(14.88)))
        size = 50e6
        assert pcie.allreduce_duration(size, [0, 1, 2, 3]) > self.ccm.allreduce_duration(
            size, [0, 1, 2, 3]
        )

    def test_p2p_duration_includes_latency_floor(self):
        d = self.ccm.p2p_duration(0.0, 0, 1)
        assert d >= self.ccm.nccl.min_latency

    def test_make_allreduce_builds_all_members(self):
        coll = self.ccm.make_allreduce(1e6, [0, 1, 2, 3], batch_id=7, layer=3)
        assert coll.complete_membership
        assert set(coll.members) == {0, 1, 2, 3}
        for gpu, member in coll.members.items():
            assert member.batch_id == 7
            assert member.layer == 3
            assert member.collective is coll
            assert member.duration == coll.duration

    def test_make_p2p_two_members_low_occupancy(self):
        coll = self.ccm.make_p2p(1e6, 0, 2)
        assert set(coll.members) == {0, 2}
        assert all(m.occupancy <= 0.05 for m in coll.members.values())

    def test_make_p2p_same_gpu_rejected(self):
        with pytest.raises(ConfigError):
            self.ccm.make_p2p(1e6, 1, 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            self.ccm.allreduce_duration(-1.0, [0, 1])

    def test_reduced_channels_same_duration_lower_occupancy(self):
        default = CollectiveCostModel(self.topo, NcclConfig())
        reduced = CollectiveCostModel(self.topo, NcclConfig().reduced())
        size = 10e6
        d_def = default.allreduce_duration(size, [0, 1, 2, 3])
        d_red = reduced.allreduce_duration(size, [0, 1, 2, 3])
        assert d_red == pytest.approx(d_def)
        c_def = default.make_allreduce(size, [0, 1, 2, 3])
        c_red = reduced.make_allreduce(size, [0, 1, 2, 3])
        assert c_red.members[0].occupancy < c_def.members[0].occupancy
