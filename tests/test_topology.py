"""Tests for the interconnect topology models."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CartesianGrid,
    DragonflyTopology,
    EvaluationEngine,
    FatTreeTopology,
    IslandTopology,
    MappingRequest,
    NodeAllocation,
    SingleSwitchTopology,
    Torus3DTopology,
    communication_edges,
    dims_create,
    nearest_neighbor_with_hops,
    topology_cut_metric,
    topology_from_spec,
)
from repro.exceptions import ReproError


class TestSingleSwitch:
    def test_distances(self):
        t = SingleSwitchTopology(4)
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 3) == 1

    def test_single_leaf(self):
        t = SingleSwitchTopology(4)
        assert {t.leaf_of(i) for i in range(4)} == {0}
        assert t.uplink_capacity_fraction() == 1.0

    def test_bounds(self):
        t = SingleSwitchTopology(4)
        with pytest.raises(ReproError):
            t.hop_distance(0, 4)
        with pytest.raises(ReproError):
            SingleSwitchTopology(0)


class TestFatTree:
    def test_leaf_grouping(self):
        t = FatTreeTopology(10, nodes_per_switch=4, blocking_factor=2.0)
        assert t.leaf_of(0) == 0
        assert t.leaf_of(3) == 0
        assert t.leaf_of(4) == 1
        assert t.leaf_of(9) == 2

    def test_distances(self):
        t = FatTreeTopology(8, nodes_per_switch=4)
        assert t.hop_distance(0, 1) == 1   # same leaf
        assert t.hop_distance(0, 5) == 3   # across the core
        assert t.hop_distance(2, 2) == 0

    def test_blocking_fraction(self):
        t = FatTreeTopology(8, nodes_per_switch=4, blocking_factor=2.0)
        assert t.uplink_capacity_fraction() == 0.5

    def test_validation(self):
        with pytest.raises(ReproError):
            FatTreeTopology(8, nodes_per_switch=0)
        with pytest.raises(ReproError):
            FatTreeTopology(8, blocking_factor=0.5)
        with pytest.raises(ReproError):
            FatTreeTopology(8, blocking_factor=float("nan"))
        with pytest.raises(TypeError, match="blocking_factor must be a real number"):
            FatTreeTopology(8, blocking_factor=True)
        with pytest.raises(TypeError, match="blocking_factor must be a real number"):
            FatTreeTopology(8, blocking_factor="2")
        for value in (2, 2.0, np.int64(2), np.float32(2.0)):
            t = FatTreeTopology(8, blocking_factor=value)
            assert t.blocking_factor == 2.0 and type(t.blocking_factor) is float

    def test_networkx_export(self):
        g = FatTreeTopology(8, nodes_per_switch=4).to_networkx()
        switches = [n for n, d in g.nodes(data=True) if d.get("kind") == "switch"]
        nodes = [n for n, d in g.nodes(data=True) if d.get("kind") == "node"]
        assert len(nodes) == 8
        assert len(switches) == 3  # core + 2 leaves


class TestIsland:
    def test_grouping_and_distance(self):
        t = IslandTopology(10, nodes_per_island=4, pruning_factor=4.0)
        assert t.leaf_of(3) == 0 and t.leaf_of(4) == 1
        assert t.hop_distance(0, 1) == 3
        assert t.hop_distance(0, 9) == 5

    def test_pruning_fraction(self):
        t = IslandTopology(10, nodes_per_island=4, pruning_factor=4.0)
        assert t.uplink_capacity_fraction() == 0.25

    def test_validation(self):
        with pytest.raises(ReproError):
            IslandTopology(4, nodes_per_island=-1)
        with pytest.raises(ReproError):
            IslandTopology(4, pruning_factor=0.0)
        with pytest.raises(ReproError):
            IslandTopology(4, pruning_factor=float("nan"))
        with pytest.raises(TypeError, match="pruning_factor must be a real number"):
            IslandTopology(8, pruning_factor=True)
        with pytest.raises(TypeError, match="pruning_factor must be a real number"):
            IslandTopology(8, pruning_factor="4")
        for value in (4, 4.0, np.int32(4), np.float64(4.0)):
            t = IslandTopology(8, nodes_per_island=4, pruning_factor=value)
            assert t.uplink_capacity_fraction() == 0.25


class TestTorus3D:
    def test_coordinates_row_major(self):
        t = Torus3DTopology((2, 3, 4))
        assert t.num_nodes == 24
        assert t.coordinates(0) == (0, 0, 0)
        assert t.coordinates(1) == (0, 0, 1)     # z fastest
        assert t.coordinates(4) == (0, 1, 0)
        assert t.coordinates(12) == (1, 0, 0)

    def test_manhattan_distance(self):
        t = Torus3DTopology((4, 4, 4), periodic=False)
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 1) == 1         # one z step
        # (0,0,0) -> (3,3,3): 3 + 3 + 3 on the open mesh
        assert t.hop_distance(0, t.num_nodes - 1) == 9

    def test_periodic_wraparound(self):
        torus = Torus3DTopology((4, 4, 4), periodic=True)
        mesh = Torus3DTopology((4, 4, 4), periodic=False)
        # (0,0,0) -> (3,3,3) wraps each axis in a single hop
        assert torus.hop_distance(0, torus.num_nodes - 1) == 3
        assert mesh.hop_distance(0, 63) == 9
        assert torus.hop_distance(0, 2) == 2     # interior pairs agree
        assert mesh.hop_distance(0, 2) == 2

    def test_symmetry(self):
        t = Torus3DTopology((3, 2, 2))
        for a in range(t.num_nodes):
            for b in range(t.num_nodes):
                assert t.hop_distance(a, b) == t.hop_distance(b, a)

    def test_every_node_its_own_leaf(self):
        t = Torus3DTopology((2, 2, 2))
        assert [t.leaf_of(i) for i in range(8)] == list(range(8))
        assert t.uplink_capacity_fraction() == 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            Torus3DTopology((2, 2))
        with pytest.raises(ReproError):
            Torus3DTopology((2, 0, 2))
        with pytest.raises(ReproError):
            Torus3DTopology((2, 2, 2)).hop_distance(0, 8)


class TestDragonfly:
    def test_hop_tiers(self):
        t = DragonflyTopology(2, routers_per_group=2, nodes_per_router=2)
        assert t.num_nodes == 8
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 1) == 1   # same router
        assert t.hop_distance(0, 2) == 2   # same group, other router
        assert t.hop_distance(0, 4) == 3   # across groups

    def test_leaf_is_router(self):
        t = DragonflyTopology(2, routers_per_group=2, nodes_per_router=2)
        assert [t.leaf_of(i) for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert t.group_of(3) == 0 and t.group_of(4) == 1

    def test_global_link_tapering(self):
        t = DragonflyTopology(4, global_link_ratio=2.0)
        assert t.uplink_capacity_fraction() == 0.5

    def test_validation(self):
        with pytest.raises(ReproError):
            DragonflyTopology(0)
        with pytest.raises(ReproError):
            DragonflyTopology(2, nodes_per_router=0)
        with pytest.raises(ReproError):
            DragonflyTopology(2, global_link_ratio=0.5)
        with pytest.raises(ReproError):
            DragonflyTopology(2, global_link_ratio=float("nan"))
        with pytest.raises(TypeError, match="global_link_ratio must be a real number"):
            DragonflyTopology(2, global_link_ratio=True)
        with pytest.raises(TypeError, match="global_link_ratio must be a real number"):
            DragonflyTopology(2, global_link_ratio="2")
        for value in (2, 2.0, np.int64(2), np.float64(2.0)):
            t = DragonflyTopology(2, global_link_ratio=value)
            assert t.uplink_capacity_fraction() == 0.5


class TestNetworkxExportMatchesHops:
    """Each export is an oracle of its ``hop_distance``: shortest paths
    in the exported graph, over every pair of nodes."""

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_torus_router_paths(self, dims, periodic):
        t = Torus3DTopology(dims, periodic=periodic)
        g = t.to_networkx()
        assert nx.number_of_selfloops(g) == 0
        for i in range(t.num_nodes):
            assert list(g.neighbors(f"node{i}")) == [f"router{i}"]
        for a in range(t.num_nodes):
            paths = nx.single_source_shortest_path_length(g, f"router{a}")
            for b in range(t.num_nodes):
                assert paths[f"router{b}"] == t.hop_distance(a, b), (a, b)

    @staticmethod
    def _assert_vertices_between_nodes(t):
        g = t.to_networkx()
        for a in range(t.num_nodes):
            paths = nx.single_source_shortest_path_length(g, f"node{a}")
            for b in range(t.num_nodes):
                between = max(paths[f"node{b}"] - 1, 0)
                assert between == t.hop_distance(a, b), (a, b)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_dragonfly_vertices_between_nodes(self, groups, routers, per_router):
        self._assert_vertices_between_nodes(
            DragonflyTopology(
                groups, routers_per_group=routers, nodes_per_router=per_router
            )
        )

    @given(st.integers(1, 12), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_island_vertices_between_nodes(self, nodes, per_island):
        self._assert_vertices_between_nodes(
            IslandTopology(nodes, nodes_per_island=per_island)
        )

    @given(
        st.one_of(
            st.builds(
                Torus3DTopology,
                st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
                st.booleans(),
            ),
            st.builds(
                DragonflyTopology,
                st.integers(1, 3),
                st.integers(1, 3),
                st.integers(1, 2),
            ),
            st.builds(IslandTopology, st.integers(1, 8), st.integers(1, 4)),
        ),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_hop_cut_metric(self, topology, per_node, seed):
        """``hop_cut`` and ``hop_max`` of a random mapping, charged edge
        by edge with the nodes' distance in the exported graph."""
        g = topology.to_networkx()
        hops = dict(nx.all_pairs_shortest_path_length(g))
        if isinstance(topology, Torus3DTopology):
            vertex, offset = "router", 0
        else:
            vertex, offset = "node", 1

        def distance(a, b):
            return max(hops[f"{vertex}{a}"][f"{vertex}{b}"] - offset, 0)

        nodes = topology.num_nodes
        alloc = NodeAllocation.homogeneous(nodes, per_node)
        grid = CartesianGrid(dims_create(alloc.total_processes, 2))
        stencil = nearest_neighbor_with_hops(2)
        perm = np.random.default_rng(seed).permutation(alloc.total_processes)
        (result,) = EvaluationEngine().evaluate_batch(
            [
                MappingRequest(
                    grid,
                    stencil,
                    alloc,
                    perm=perm,
                    metrics=(topology_cut_metric(topology),),
                )
            ]
        )
        node_of = np.empty(alloc.total_processes, dtype=np.int64)
        node_of[perm] = np.arange(alloc.total_processes) // per_node
        per_source = [0] * nodes
        for u, v in communication_edges(grid, stencil).tolist():
            per_source[node_of[u]] += distance(node_of[u], node_of[v])
        assert result.metrics["hop_cut"] == sum(per_source)
        assert result.metrics["hop_max"] == max(per_source)

    def test_exports_that_contradicted_hops(self):
        """The core-and-leaf star these classes inherited put nodes 0 and
        1 of a (4, 4, 2) torus as far apart as nodes 0 and 31, put three
        switches between dragonfly nodes one hop apart, and put one
        switch between island nodes three hops apart and three between
        nodes five apart."""
        torus = Torus3DTopology((4, 4, 2)).to_networkx()
        assert nx.shortest_path_length(torus, "router0", "router1") == 1
        assert nx.shortest_path_length(torus, "router0", "router31") == 3
        dragonfly = DragonflyTopology(3, 4, 4).to_networkx()
        assert nx.shortest_path_length(dragonfly, "node0", "node4") == 3
        islands = IslandTopology(10, nodes_per_island=4).to_networkx()
        assert nx.shortest_path_length(islands, "node0", "node1") == 4
        assert nx.shortest_path_length(islands, "node0", "node9") == 6

    def test_island_vertex_kinds(self):
        g = IslandTopology(10, nodes_per_island=4, pruning_factor=4.0).to_networkx()
        kinds = nx.get_node_attributes(g, "kind")
        assert sum(k == "switch" for k in kinds.values()) == 1 + 3 + 10
        assert sum(k == "node" for k in kinds.values()) == 10
        assert g["core"]["island2"]["capacity"] == 0.25
        assert g["edge9"]["island2"]["capacity"] == 1.0

    def test_dragonfly_vertex_kinds(self):
        g = DragonflyTopology(3, 2, 2, global_link_ratio=2.0).to_networkx()
        kinds = nx.get_node_attributes(g, "kind")
        assert sorted(n for n, k in kinds.items() if k == "link") == [
            "global0-1",
            "global0-2",
            "global1-2",
        ]
        assert sum(k == "switch" for k in kinds.values()) == 6
        assert sum(k == "node" for k in kinds.values()) == 12
        assert g["global0-1"]["router0"]["capacity"] == 0.5


class TestTopologyFromSpec:
    """The wire format topology_cut_metric uses must round-trip."""

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("single_switch", (6,)),
            ("fat_tree", (8, 4, 2.0)),
            ("island", (10, 5, 4.0)),
            ("torus3d", ((2, 3, 2), True)),
            ("torus3d", ((2, 2, 2), False)),
            ("dragonfly", (2, 2, 2, 2.0)),
        ],
    )
    def test_round_trip_distances(self, kind, params):
        t = topology_from_spec(kind, params)
        again = topology_from_spec(kind, params)
        n = t.num_nodes
        assert again.num_nodes == n
        for a in range(min(n, 6)):
            for b in range(min(n, 6)):
                assert t.hop_distance(a, b) == again.hop_distance(a, b)
        assert t.uplink_capacity_fraction() == again.uplink_capacity_fraction()

    def test_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown topology kind"):
            topology_from_spec("moebius", (4,))

    def test_torus_needs_dims(self):
        with pytest.raises(ReproError, match="torus3d spec"):
            topology_from_spec("torus3d", ())
