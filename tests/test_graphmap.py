"""Tests for the VieM-substitute general graph mapper."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    CartesianGrid,
    GraphMapper,
    MappingError,
    NodeAllocation,
    StencilProgramWorkload,
    as_workload,
    component,
    dims_create,
    evaluate_mapping,
    nearest_neighbor,
    nearest_neighbor_with_hops,
)
import repro.core.graphmap as graphmap_module
from repro.core.graphmap import _TOP, _Adjacency, _UndirectedCSR
from repro.grid.graph import communication_edges
from repro.workloads import clustered_workload, random_sparse_workload


class TestUndirectedCSR:
    def test_pair_aggregation(self):
        edges = np.array([[0, 1], [1, 0], [1, 2]])
        csr = _UndirectedCSR(edges, 3)
        pairs = {tuple(p): w for p, w in zip(csr.pairs.tolist(), csr.pair_weights)}
        assert pairs == {(0, 1): 2, (1, 2): 1}

    def test_neighbors(self):
        edges = np.array([[0, 1], [1, 0], [1, 2]])
        csr = _UndirectedCSR(edges, 3)
        nbrs, ws = csr.neighbors(1)
        assert set(nbrs.tolist()) == {0, 2}
        assert sorted(ws.tolist()) == [1, 2]

    def test_empty(self):
        csr = _UndirectedCSR(np.empty((0, 2), dtype=np.int64), 4)
        nbrs, _ = csr.neighbors(0)
        assert nbrs.size == 0


class TestQuality:
    def test_better_than_blocked_on_square_grid(self):
        grid = CartesianGrid([12, 12])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(12, 12)
        perm = GraphMapper(seed=3).map_ranks(grid, stencil, alloc)
        cost = evaluate_mapping(grid, stencil, perm, alloc)
        blocked = evaluate_mapping(grid, stencil, np.arange(144), alloc)
        assert cost.jsum < blocked.jsum

    def test_quality_within_paper_band_on_figure6_instance(self):
        """VieM reported Jsum=1342 on the 50x48 NN instance; our
        substitute must land in the same band (between the best
        specialised algorithm and Nodecart)."""
        grid = CartesianGrid([50, 48])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(50, 48)
        perm = GraphMapper(seed=1).map_ranks(grid, stencil, alloc)
        cost = evaluate_mapping(grid, stencil, perm, alloc)
        assert 1244 <= cost.jsum <= 2404

    def test_component_stencil_near_optimal(self):
        grid = CartesianGrid([20, 12])
        stencil = component(2)
        alloc = NodeAllocation.homogeneous(20, 12)
        perm = GraphMapper(seed=5).map_ranks(grid, stencil, alloc)
        cost = evaluate_mapping(grid, stencil, perm, alloc)
        blocked = evaluate_mapping(grid, stencil, np.arange(240), alloc)
        assert cost.jsum < 0.25 * blocked.jsum


class TestGeneralGraphs:
    def test_map_graph_arbitrary_topology(self):
        """A two-clique graph must split into its cliques."""
        clique_a = [(i, j) for i in range(4) for j in range(4) if i != j]
        clique_b = [(i + 4, j + 4) for i, j in clique_a]
        bridge = [(0, 4), (4, 0)]
        edges = np.array(clique_a + clique_b + bridge)
        alloc = NodeAllocation([4, 4])
        perm = GraphMapper(seed=7).map_graph(edges, 8, alloc)
        from repro.metrics.cost import node_of_vertex

        nodes = node_of_vertex(perm, alloc)
        assert len(set(nodes[:4].tolist())) == 1
        assert len(set(nodes[4:].tolist())) == 1
        assert nodes[0] != nodes[7]

    def test_map_graph_size_mismatch(self):
        with pytest.raises(MappingError):
            GraphMapper().map_graph(np.array([[0, 1]]), 3, NodeAllocation([2, 2]))

    def test_edgeless_graph(self):
        perm = GraphMapper().map_graph(
            np.empty((0, 2), dtype=np.int64), 4, NodeAllocation([2, 2])
        )
        assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_heterogeneous_capacities(self):
        grid = CartesianGrid([6, 4])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation([10, 8, 6])
        perm = GraphMapper(seed=2).map_ranks(grid, stencil, alloc)
        from repro.metrics.cost import node_of_vertex

        counts = np.bincount(node_of_vertex(perm, alloc), minlength=3)
        assert counts.tolist() == [10, 8, 6]


class TestMalformedEdges:
    """``map_graph`` rejects edge arrays it would otherwise misread."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            # The pair key 0*4+4 would decode to the edge (1, 0).
            (np.array([[0, 4]]), r"endpoints must be in \[0, 4\), got range \[0, 4\]"),
            (np.array([[0, 1], [3, -2]]), r"got range \[-2, 3\]"),
            (np.zeros((2, 3), dtype=np.int64), r"shape \(m, 2\), got \(2, 3\)"),
            (np.array([0, 1, 2, 3]), r"shape \(m, 2\), got \(4,\)"),
        ],
        ids=[
            "endpoint-too-large",
            "negative-endpoint",
            "three-columns",
            "one-dimensional",
        ],
    )
    def test_rejected_before_any_work(self, monkeypatch, edges, message):
        def no_work(*args):
            raise AssertionError("map_graph built its graph from bad edges")

        monkeypatch.setattr(graphmap_module, "_UndirectedCSR", no_work)
        with pytest.raises(MappingError, match=message):
            GraphMapper().map_graph(edges, 4, NodeAllocation([2, 2]))


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"local_search_factor": float("nan")}, "local_search_factor"),
            ({"local_search_factor": float("inf")}, "local_search_factor"),
            ({"local_search_factor": -0.5}, "local_search_factor"),
            ({"seed": -1}, "seed"),
            ({"refinement_swaps": -1}, "refinement_swaps"),
            ({"restarts": 0}, "restarts"),
        ],
    )
    def test_rejected_at_construction(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GraphMapper(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"seed": 1.7}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"seed": True}, "seed"),
            ({"refinement_swaps": True}, "refinement_swaps"),
            ({"refinement_swaps": 0.5}, "refinement_swaps"),
            ({"restarts": 2.5}, "restarts"),
            ({"restarts": "2"}, "restarts"),
            ({"restarts": None}, "restarts"),
        ],
    )
    def test_non_integers_rejected(self, kwargs, name):
        with pytest.raises(TypeError, match=f"^{name} must be"):
            GraphMapper(**kwargs)

    @pytest.mark.parametrize(
        "factor", [True, False, np.bool_(True), "3", None, 1 + 2j, [4.0]]
    )
    def test_non_real_local_search_factor_rejected(self, factor):
        with pytest.raises(TypeError, match="^local_search_factor must be"):
            GraphMapper(local_search_factor=factor)

    @pytest.mark.parametrize(
        "factor", [2, 2.5, np.float32(2.5), np.float64(2.5), np.int64(2)]
    )
    def test_real_local_search_factor_accepted(self, factor):
        assert repr(GraphMapper(local_search_factor=factor)) == (
            "GraphMapper(seed=1, refinement_swaps=64, "
            f"local_search_factor={float(factor)}, restarts=1)"
        )

    def test_integral_floats_and_numpy_ints_accepted(self):
        mapper = GraphMapper(
            seed=np.int64(3), refinement_swaps=2.0, restarts=np.int32(2)
        )
        assert repr(mapper) == (
            "GraphMapper(seed=3, refinement_swaps=2, "
            "local_search_factor=4.0, restarts=2)"
        )
        grid, alloc = CartesianGrid([6, 4]), NodeAllocation.homogeneous(4, 6)
        plain = GraphMapper(seed=3, refinement_swaps=2, restarts=2)
        assert _digest(mapper.map_ranks(grid, nearest_neighbor(2), alloc)) == (
            _digest(plain.map_ranks(grid, nearest_neighbor(2), alloc))
        )

    def test_zero_budgets_accepted(self):
        mapper = GraphMapper(seed=0, refinement_swaps=0, local_search_factor=0)
        perm = mapper.map_graph(np.array([[0, 1], [2, 3]]), 4, NodeAllocation([2, 2]))
        assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_repr_unchanged(self):
        assert repr(GraphMapper()) == (
            "GraphMapper(seed=1, refinement_swaps=64, "
            "local_search_factor=4.0, restarts=1)"
        )


@st.composite
def general_graphs(draw):
    """Heterogeneous node sizes and a random directed edge list over their
    vertices: duplicates, self-loops and isolated vertices all occur."""
    node_sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(node_sizes)
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), node_sizes


def _node_of_vertex(perm, node_sizes) -> dict[int, int]:
    """Node of every vertex, read off the contiguous rank blocks."""
    node_of = {}
    rank = 0
    for node, size in enumerate(node_sizes):
        for _ in range(size):
            node_of[int(perm[rank])] = node
            rank += 1
    return node_of


def _plain_jsum(edges, node_of) -> int:
    return sum(1 for u, v in edges.tolist() if node_of[u] != node_of[v])


class TestOracleOnGeneralGraphs:
    @given(general_graphs(), st.integers(0, 2**16), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_capacities_and_local_search_never_worsens(self, graph, seed, restarts):
        edges, node_sizes = graph
        n = sum(node_sizes)
        alloc = NodeAllocation(node_sizes)
        jsum = {}
        for factor in (4.0, 0.0):
            mapper = GraphMapper(
                seed=seed, restarts=restarts, local_search_factor=factor
            )
            node_of = _node_of_vertex(mapper.map_graph(edges, n, alloc), node_sizes)
            # (a) every vertex lands once, node i on exactly node_sizes[i].
            assert sorted(node_of) == list(range(n))
            counts = Counter(node_of.values())
            assert [counts[i] for i in range(len(node_sizes))] == node_sizes
            jsum[factor] = _plain_jsum(edges, node_of)
        # (b) Bisection draws the same rng values with or without a local
        # search budget, and local search only accepts strict gains.
        assert jsum[4.0] <= jsum[0.0]


# ----------------------------------------------------------------------
# Differential oracles: the NumPy-blocked local search and the bounded
# refinement against the sequential loops they replaced
# ----------------------------------------------------------------------
def _reference_local_search(adj, csr, vertex_node, rng, factor) -> list[int]:
    """graphmap's local search as one Python loop over its picks.

    Tries every pick in turn and swaps a cut pair's endpoints whenever
    that lowers ``Jsum``; returns the indices of the accepted picks.
    """
    pairs = csr.pairs
    if pairs.size == 0:
        return []
    trials = int(factor * len(pairs))
    if trials <= 0:
        return []
    picks = rng.integers(len(pairs), size=trials)
    first, second = pairs[picks, 0], pairs[picks, 1]
    nbrs, wts = adj.nbrs, adj.wts
    node = vertex_node.tolist()
    accepted = []
    for index, (u, v) in enumerate(zip(first.tolist(), second.tolist())):
        nu, nv = node[u], node[v]
        if nu == nv:
            continue
        # Exact Jsum change of swapping the nodes of u and v; the u-v
        # edge itself stays cut.
        delta = 0
        for z, w in zip(nbrs[u], wts[u]):
            if z != v:
                nz = node[z]
                if nz == nu:
                    delta += w
                elif nz == nv:
                    delta -= w
        for z, w in zip(nbrs[v], wts[v]):
            if z != u:
                nz = node[z]
                if nz == nv:
                    delta += w
                elif nz == nu:
                    delta -= w
        if delta < 0:
            node[u] = vertex_node[u] = nv
            node[v] = vertex_node[v] = nu
            accepted.append(index)
    return accepted


def _reference_refine(adj, vertices, lo, hi, weights, in_a, swaps) -> None:
    """graphmap's bisection refinement without the move-gain bound: every
    round ranks both sides and scores the top candidate pairs."""
    if lo.size == 0:
        return
    neg_weights = -weights
    for _ in range(swaps):
        sign = np.where(in_a[lo] != in_a[hi], weights, neg_weights)
        move_gain = np.zeros(len(vertices), dtype=np.int64)
        np.add.at(move_gain, lo, sign)
        np.add.at(move_gain, hi, sign)
        side_a = np.flatnonzero(in_a)
        side_b = np.flatnonzero(~in_a)
        best_a = side_a[np.argsort(move_gain[side_a])[::-1][:_TOP]]
        best_b = side_b[np.argsort(move_gain[side_b])[::-1][:_TOP]]
        swap_gain = move_gain[best_a][:, None] + move_gain[best_b]
        column = {b: j for j, b in enumerate(vertices[best_b].tolist())}
        for i, a in enumerate(vertices[best_a].tolist()):
            for z, w in zip(adj.nbrs[a], adj.wts[a]):
                j = column.get(z)
                if j is not None:
                    swap_gain[i, j] -= 2 * w
        best = int(swap_gain.argmax())
        if swap_gain.flat[best] <= 0:
            return
        i, j = divmod(best, swap_gain.shape[1])
        in_a[best_a[i]] = False
        in_a[best_b[j]] = True


@st.composite
def dealt_graphs(draw):
    """Random multigraphs up to four edges per vertex on up to eight
    nodes: self-loops, weight-2 pairs and isolated vertices all occur,
    and a random assignment gives the local search many swaps to take."""
    node_sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    n = sum(node_sizes)
    edges = draw(st.integers(0, 4 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(n, size=(edges, 2)), node_sizes


def _dealt(node_sizes, seed) -> np.ndarray:
    """A random assignment of vertices to nodes, node i getting node_sizes[i]."""
    nodes = np.repeat(np.arange(len(node_sizes)), node_sizes)
    return np.random.default_rng(seed).permutation(nodes)


class TestAgainstSequentialReference:
    @given(
        dealt_graphs(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.5, 4.0, 12.0]),
        st.sampled_from(
            [(4096, 32, 1 << 16), (16, 4, 1 << 16), (3, 1, 1 << 16), (1, 1, 1)]
            + [(4096, 32, 12), (16, 4, 3)]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_local_search_matches(self, graph, seed, factor, blocks):
        """Same swaps in the same order, whatever the block sizes and
        slot cap."""
        edges, node_sizes = graph
        csr = _UndirectedCSR(edges, sum(node_sizes))
        start = _dealt(node_sizes, seed)
        expected, ref_rng = start.copy(), np.random.default_rng(seed)
        _reference_local_search(_Adjacency(csr), csr, expected, ref_rng, factor)
        got, rng = start.copy(), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            for name, value in zip(
                ("_FIRST_BLOCK", "_RESTART_BLOCK", "_MAX_SLOTS"), blocks
            ):
                patch.setattr(graphmap_module, name, value)
            GraphMapper(local_search_factor=factor)._local_search(csr, got, rng)
        assert got.tolist() == expected.tolist()
        assert rng.integers(2**62) == ref_rng.integers(2**62)

    def test_local_search_accepts_across_blocks(self):
        """50x48 NN dealt at random onto 50 nodes: 171 accepted swaps,
        spread over several blocks of picks."""
        edges = communication_edges(CartesianGrid([50, 48]), nearest_neighbor(2))
        csr = _UndirectedCSR(edges, 2400)
        start = _dealt([48] * 50, 0)
        expected, ref_rng = start.copy(), np.random.default_rng(1)
        accepted = _reference_local_search(
            _Adjacency(csr), csr, expected, ref_rng, 4.0
        )
        assert len(accepted) > 100
        assert accepted[0] < graphmap_module._FIRST_BLOCK < accepted[-1]
        got, rng = start.copy(), np.random.default_rng(1)
        GraphMapper()._local_search(csr, got, rng)
        assert got.tolist() == expected.tolist()
        assert rng.integers(2**62) == ref_rng.integers(2**62)

    def test_local_search_bounds_block_slots(self, monkeypatch):
        """A hub in half the pairs: every block scores at most
        ``_MAX_SLOTS`` neighbour slots, or a single pick."""
        n = 400
        spokes = [(0, i) for i in range(1, n)]
        ring = [(i, i % (n - 1) + 1) for i in range(1, n)]
        csr = _UndirectedCSR(np.array(spokes + ring), n)
        degree = np.diff(csr.indptr)
        scored = []

        def counting(csr, node, u, v, uv_weight):
            if len(u) > 1:
                scored.append(int(degree[u].sum() + degree[v].sum()))
            return swap_deltas(csr, node, u, v, uv_weight)

        swap_deltas = graphmap_module._swap_deltas
        monkeypatch.setattr(graphmap_module, "_swap_deltas", counting)
        monkeypatch.setattr(graphmap_module, "_MAX_SLOTS", 2000)
        start = _dealt([40] * 10, 0)
        expected, ref_rng = start.copy(), np.random.default_rng(1)
        _reference_local_search(_Adjacency(csr), csr, expected, ref_rng, 4.0)
        got, rng = start.copy(), np.random.default_rng(1)
        GraphMapper()._local_search(csr, got, rng)
        assert got.tolist() == expected.tolist()
        assert len(scored) > 100 and max(scored) <= 2000

    @given(
        dealt_graphs(),
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
        st.floats(0.3, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_refine_matches(self, graph, seed, swaps, keep):
        """One bisection level: a random subset of the vertices, its
        internal pairs renumbered, split at random into two sides."""
        edges, node_sizes = graph
        n = sum(node_sizes)
        csr = _UndirectedCSR(edges, n)
        draw = np.random.default_rng(seed)
        member = draw.random(n) < keep
        vertices = np.flatnonzero(member)
        assume(len(vertices) >= 2)
        inside = member[csr.pairs[:, 0]] & member[csr.pairs[:, 1]]
        local = np.cumsum(member) - 1
        lo, hi = local[csr.pairs[inside, 0]], local[csr.pairs[inside, 1]]
        weights = csr.pair_weights[inside]
        in_a = np.zeros(len(vertices), dtype=bool)
        cap_a = int(draw.integers(1, len(vertices)))
        in_a[draw.choice(len(vertices), cap_a, replace=False)] = True
        adj = _Adjacency(csr)
        expected = in_a.copy()
        _reference_refine(adj, vertices, lo, hi, weights, expected, swaps)
        got = in_a.copy()
        GraphMapper(refinement_swaps=swaps)._refine(
            adj, vertices, lo, hi, weights, got
        )
        assert got.tolist() == expected.tolist()


class TestDeterminismAndConfig:
    def test_seed_determinism(self):
        grid = CartesianGrid([8, 8])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(4, 16)
        a = GraphMapper(seed=9).map_ranks(grid, stencil, alloc)
        b = GraphMapper(seed=9).map_ranks(grid, stencil, alloc)
        assert (a == b).all()

    def test_zero_local_search_budget(self):
        grid = CartesianGrid([6, 4])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(4, 6)
        perm = GraphMapper(seed=1, local_search_factor=0.0).map_ranks(
            grid, stencil, alloc
        )
        assert sorted(perm.tolist()) == list(range(24))

    def test_compute_rank_falls_back_to_full_mapping(self):
        grid = CartesianGrid([4, 4])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(4, 4)
        m = GraphMapper(seed=4)
        perm = m.map_ranks(grid, stencil, alloc)
        assert m.compute_rank(grid, stencil, alloc, 5) == perm[5]

    def test_not_distributed(self):
        assert GraphMapper.distributed is False


# ----------------------------------------------------------------------
# Golden permutation digests
# ----------------------------------------------------------------------
def _grid_case(nodes, per_node, stencil, **params):
    grid = CartesianGrid(dims_create(nodes * per_node, stencil.ndim))
    alloc = NodeAllocation.homogeneous(nodes, per_node)
    return GraphMapper(**params).map_ranks(grid, stencil, alloc)


def _clustered_case():
    graph = as_workload(
        clustered_workload(31, 32, intra_degree=6, inter_links=2, seed=0)
    )
    return GraphMapper().map_workload(graph, NodeAllocation.homogeneous(31, 32))


def _program_case():
    alloc = NodeAllocation.homogeneous(31, 32)
    grid = CartesianGrid(dims_create(alloc.total_processes, 2))
    program = StencilProgramWorkload(
        grid,
        [
            ("advect", nearest_neighbor(2)),
            ("diffuse", nearest_neighbor_with_hops(2)),
        ],
    )
    return GraphMapper().map_workload(program, alloc)


def _disconnected_case():
    """Two 5-cliques (one edge doubled, one self-loop) and four isolated
    vertices on nodes of 4, 3, 3 and 4: growing a side runs out of
    connected vertices three times, so the growth loop must take ungrown
    ones."""
    clique_a = [(i, j) for i in range(5) for j in range(5) if i != j]
    clique_b = [(i + 6, j + 6) for i, j in clique_a]
    edges = np.array(clique_a + clique_b + [(0, 1), (7, 7)])
    alloc = NodeAllocation([4, 3, 3, 4])
    return GraphMapper(seed=4).map_graph(edges, 14, alloc)


def _random_case(**params):
    """A random graph on which local search accepts swaps after an AVX2
    or AVX-512 sort (after the scalar sort it accepts none)."""
    graph = as_workload(random_sparse_workload(200, 6, seed=3))
    alloc = NodeAllocation.homogeneous(10, 20)
    return GraphMapper(**params).map_workload(graph, alloc)


def _edgeless_case():
    edges = np.empty((0, 2), dtype=np.int64)
    return GraphMapper().map_graph(edges, 10, NodeAllocation([3, 3, 4]))


GOLDEN_CASES = {
    "nn2-P48000": (
        lambda: _grid_case(1000, 48, nearest_neighbor(2)),
        {
            "avx512": "48155bb2f658d81f31f0dec860c20b9f4151d099b09058f584ec69c135eff782",
            "avx2": "8e40de9f146b504751ee0a22bb6afb5754b1f1eb44c349c7a139b9b9cdbec4b2",
            "scalar": "ca37c016ae286d92a74b5399dc7c733d97dabd460fe0fec782727c48deffbb5d",
        },
    ),
    "nnh2-P9600": (
        lambda: _grid_case(200, 48, nearest_neighbor_with_hops(2)),
        "931f8d94c2028782193f475db1cab24e522520131e3521fdae741cfe6f94e375",
    ),
    "nn3-P9600": (
        lambda: _grid_case(200, 48, nearest_neighbor(3)),
        {
            "avx512": "0f938b3aba987ff3058142e4d546f1ef8662b760dc9f85d3facac201d5a85536",
            "avx2": "220555ee2d239873b8a413ed7caf80e942be1a24023b279381fa5b4ac5231b51",
            "scalar": "8948287f53d54d605bd206316c57b33d3d55acc05d2c608965b06a5ecd032108",
        },
    ),
    "component2-20x12": (
        lambda: _grid_case(20, 12, component(2), seed=5),
        "4cd240f45389e8d67898109880267727962f74beb3528af80d3aad063105031e",
    ),
    "restarts3": (
        lambda: _grid_case(50, 48, nearest_neighbor_with_hops(2), restarts=3),
        "9841f518de5f96fff1c3da966a3f2681f780f250f5e0e493823bb573ebeea681",
    ),
    "refinement_swaps2": (
        lambda: _grid_case(50, 48, nearest_neighbor(2), refinement_swaps=2),
        "5df00aef25c4c4ae55f52b09328203fa0ace7bf8215f8622f00a653fcd632ffa",
    ),
    "random-200": (
        _random_case,
        {
            "avx512": "11b8b896bfa7cf7e9cf6c51cd29f5c62083105cbbdcf7b609b3b3410a76f81b2",
            "avx2": "11b8b896bfa7cf7e9cf6c51cd29f5c62083105cbbdcf7b609b3b3410a76f81b2",
            "scalar": "a16a1c993b02783847fd39e0ecc13a71523a9e9287965fd1bc528a2939f2fd21",
        },
    ),
    "no-local-search": (
        lambda: _random_case(local_search_factor=0),
        {
            "avx512": "0b551f920f207ce37643432e24a89c88bb715da7f4ccde75911fd18e4b255685",
            "avx2": "0b551f920f207ce37643432e24a89c88bb715da7f4ccde75911fd18e4b255685",
            "scalar": "a16a1c993b02783847fd39e0ecc13a71523a9e9287965fd1bc528a2939f2fd21",
        },
    ),
    "heterogeneous": (
        lambda: GraphMapper(seed=2).map_ranks(
            CartesianGrid([6, 4]), nearest_neighbor(2), NodeAllocation([10, 8, 6])
        ),
        "f785b2d906ce22c35f29f4a1e2266a602b5bdd5fd460c8575a7c2c4daf92d0c2",
    ),
    "clustered-31x32": (
        _clustered_case,
        "6aeadfe04fd7e5f01e41332c153bfe9ea720fcc362a32fa8e8c90595ee10fe5e",
    ),
    "program-31x32": (
        _program_case,
        "a155f8a1857382c1784beb7c5bad689ab937b2d834c8e42f9853dbd666bccc24",
    ),
    "disconnected": (
        _disconnected_case,
        "2f288753ae20b1828715559a540f188c83a943e053c775dd6311b590ddd4b61f",
    ),
    "edgeless": (
        _edgeless_case,
        "65d98c31232a3f18f41536bf71123d311ede43c2d66c820e306e548d9b430fbb",
    ),
}


def _digest(perm: np.ndarray) -> str:
    return hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest()


def _argsort_tie_order() -> str:
    """Which sort NumPy's default-kind int64 ``argsort`` runs on this host.

    NumPy dispatches it to AVX-512 or AVX2 code where the CPU has them,
    and each of those and the scalar sort orders equal keys differently;
    one tie-heavy sort tells them apart.
    """
    return _digest(np.argsort(np.arange(1000, dtype=np.int64) % 7))[:16]


#: ``_argsort_tie_order()`` of each sort, recorded with NumPy 2.4 on an
#: AVX-512 host by hiding CPU features from NumPy: none, then
#: ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, then
#: ``"X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``.
_SORTS = {
    "ed2133a92a5115ed": "avx512",
    "a1f80d79224fcd18": "avx2",
    "629f97954286d24e": "scalar",
}


class TestGoldenPermutations:
    """graphmap's permutations, pinned byte for byte.

    Any rewrite of the mapper must keep every ``rng`` draw, neighbour
    order, heap tie-break and ``argsort`` input of the implementation
    these digests were recorded with; they catch the first deviation.

    ``_refine``'s default-kind ``argsort`` breaks gain ties through
    NumPy's SIMD sort where the CPU has one (ROADMAP: "graphmap output
    depends on the host CPU"), so a case whose refinement meets such a
    tie holds one digest per sort, and the test picks the one this
    host's ``argsort`` matches.  On a sort none was recorded for, those
    cases skip and the others still run.
    """

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_digest(self, case):
        build, expected = GOLDEN_CASES[case]
        if isinstance(expected, dict):
            sort = _SORTS.get(_argsort_tie_order())
            if sort is None:
                pytest.skip(
                    "NumPy's argsort orders ties unlike the AVX-512, AVX2 "
                    "and scalar sorts the digests were recorded with"
                )
            expected = expected[sort]
        assert _digest(build()) == expected
