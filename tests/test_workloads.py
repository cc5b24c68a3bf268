"""Tests for the workload families and synthetic workload generators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    CartesianGrid,
    CartesianWorkload,
    GraphMapper,
    GraphWorkload,
    NodeAllocation,
    StencilProgramWorkload,
    as_workload,
    communication_edges,
    nearest_neighbor,
    nearest_neighbor_with_hops,
)
from repro.exceptions import MappingError, ReproError
from repro.metrics.cost import node_of_vertex
from repro.workloads import (
    clustered_workload,
    halo_exchange_volume,
    random_sparse_workload,
    stencil_workload,
)

from .conftest import grids, stencils_for


class TestStencilWorkload:
    def test_matches_graph_builder(self):
        grid = CartesianGrid([5, 5])
        w = stencil_workload(grid, nearest_neighbor(2))
        assert w.num_processes == 25
        assert w.num_edges == 2 * (4 * 5 + 5 * 4)
        assert w.is_symmetric()

    def test_degree_out(self):
        grid = CartesianGrid([3, 3])
        w = stencil_workload(grid, nearest_neighbor(2))
        deg = w.degree_out()
        assert deg[grid.rank_of([1, 1])] == 4
        assert deg[grid.rank_of([0, 0])] == 2


class TestRandomSparse:
    def test_shape_and_symmetry(self):
        w = random_sparse_workload(20, 3, seed=1)
        assert w.num_processes == 20
        assert w.is_symmetric()
        assert (w.edges[:, 0] != w.edges[:, 1]).all()  # no self loops

    def test_asymmetric_option(self):
        w = random_sparse_workload(20, 3, seed=1, symmetric=False)
        assert (w.edges[:, 0] != w.edges[:, 1]).all()

    def test_determinism(self):
        a = random_sparse_workload(15, 2, seed=9)
        b = random_sparse_workload(15, 2, seed=9)
        assert (a.edges == b.edges).all()

    def test_validation(self):
        with pytest.raises(ReproError):
            random_sparse_workload(1, 1)
        with pytest.raises(ReproError):
            random_sparse_workload(10, 0)
        with pytest.raises(ReproError):
            random_sparse_workload(10, 10)


class TestClustered:
    def test_structure(self):
        w = clustered_workload(4, 8, intra_degree=3, seed=2)
        assert w.num_processes == 32
        assert w.is_symmetric()
        # intra-cluster edges dominate
        cluster_of = w.edges // 8
        intra = (cluster_of[:, 0] == cluster_of[:, 1]).sum()
        assert intra > 0.8 * w.num_edges

    def test_graphmap_recovers_clusters(self):
        """With node size == cluster size, the mapper should cut only
        the coupling links."""
        w = clustered_workload(4, 8, intra_degree=4, inter_links=1, seed=3)
        alloc = NodeAllocation.homogeneous(4, 8)
        perm = GraphMapper(seed=1).map_graph(w.edges, w.num_processes, alloc)
        nodes = node_of_vertex(perm, alloc)
        # count cut directed edges; optimum = 2 per coupling * 3 couplings
        cut = (nodes[w.edges[:, 0]] != nodes[w.edges[:, 1]]).sum()
        assert cut <= 3 * 4  # small multiple of the optimum

    def test_validation(self):
        with pytest.raises(ReproError):
            clustered_workload(0, 4)
        with pytest.raises(ReproError):
            clustered_workload(2, 4, intra_degree=4)


class TestHaloVolume:
    def test_unit_offsets_send_faces(self):
        grid = CartesianGrid([4, 4])
        vols = halo_exchange_volume(grid, nearest_neighbor(2), (16, 32))
        assert vols[(1, 0)] == 32 * 8    # a row of the tile
        assert vols[(0, 1)] == 16 * 8    # a column

    def test_hops_send_thicker_slabs(self):
        grid = CartesianGrid([8, 8])
        vols = halo_exchange_volume(
            grid, nearest_neighbor_with_hops(2), (16, 16)
        )
        assert vols[(2, 0)] == 2 * vols[(1, 0)]
        assert vols[(3, 0)] == 3 * vols[(1, 0)]

    def test_element_bytes(self):
        grid = CartesianGrid([4, 4])
        vols = halo_exchange_volume(grid, nearest_neighbor(2), (8, 8), element_bytes=4)
        assert vols[(1, 0)] == 8 * 4

    def test_shape_validation(self):
        grid = CartesianGrid([4, 4])
        with pytest.raises(ReproError):
            halo_exchange_volume(grid, nearest_neighbor(2), (8,))


# ----------------------------------------------------------------------
# Hypothesis properties of the generators
# ----------------------------------------------------------------------


@given(grids(max_ndim=3, max_size=96), st.data())
@settings(max_examples=25, deadline=None)
def test_halo_volume_symmetric_under_offset_negation(grid, data):
    """A symmetric stencil sends the same slab both ways: the volume of
    offset ``o`` equals the volume of ``-o`` whenever both appear."""
    stencil = data.draw(stencils_for(grid.ndim))
    tile = tuple(data.draw(st.integers(1, 32)) for _ in range(grid.ndim))
    vols = halo_exchange_volume(grid, stencil, tile)
    for off, volume in vols.items():
        neg = tuple(-c for c in off)
        if neg in vols:
            assert vols[neg] == volume
        assert volume > 0


@given(st.integers(4, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_sparse_seed_determinism(p, seed):
    """Same seed, same edges — across independent generator calls."""
    degree = min(3, p - 1)
    a = random_sparse_workload(p, degree, seed=seed)
    b = random_sparse_workload(p, degree, seed=seed)
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a.num_processes == b.num_processes == p


@given(st.integers(2, 6), st.integers(4, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_clustered_seed_determinism(clusters, size, seed):
    a = clustered_workload(clusters, size, intra_degree=3, seed=seed)
    b = clustered_workload(clusters, size, intra_degree=3, seed=seed)
    assert a.edges.tobytes() == b.edges.tobytes()


@given(st.integers(4, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_graph_workload_content_key_stability(p, seed):
    """Two GraphWorkloads over equal edges share cache/content keys —
    the identity every dedupe tier (memo, disk store, daemon result
    store) relies on — and pickling preserves both."""
    degree = min(3, p - 1)
    generated = random_sparse_workload(p, degree, seed=seed)
    one = as_workload(generated)
    two = GraphWorkload(p, generated.edges.copy(), name="renamed")
    assert one.cache_key() == two.cache_key()
    assert one.content_key() == two.content_key()
    assert one == two and hash(one) == hash(two)
    thawed = pickle.loads(pickle.dumps(one))
    assert thawed.content_key() == one.content_key()
    assert thawed.name == one.name
    # perturbing a single endpoint must change the identity
    if generated.num_edges:
        edges = generated.edges.copy()
        edges[0, 0] = (edges[0, 0] + 1) % p
        if edges[0, 0] != edges[0, 1]:
            assert GraphWorkload(p, edges).content_key() != one.content_key()


# ----------------------------------------------------------------------
# Workload families (the WorkloadBase protocol)
# ----------------------------------------------------------------------


class TestCartesianWorkload:
    def test_equivalent_to_plain_grid_stencil(self):
        grid = CartesianGrid([6, 4])
        stencil = nearest_neighbor(2)
        w = CartesianWorkload(grid, stencil)
        assert w.cartesian_equivalent() == (grid, stencil)
        assert w.grid is grid and w.stencil is stencil
        assert w.num_processes == 24
        assert (
            w.comm_edges().tobytes()
            == communication_edges(grid, stencil).tobytes()
        )

    def test_content_key_ignores_object_identity(self):
        a = CartesianWorkload(CartesianGrid([5, 5]), nearest_neighbor(2))
        b = CartesianWorkload(CartesianGrid([5, 5]), nearest_neighbor(2))
        assert a.content_key() == b.content_key()
        assert a == b

    def test_validation(self):
        with pytest.raises(ReproError, match="must be a CartesianGrid"):
            CartesianWorkload("grid", nearest_neighbor(2))
        with pytest.raises(ReproError, match="dimensional"):
            CartesianWorkload(CartesianGrid([4, 4]), nearest_neighbor(3))


class TestStencilProgramWorkload:
    def test_union_stencil_and_multiplicity(self):
        grid = CartesianGrid([6, 6])
        nn = nearest_neighbor(2)
        program = StencilProgramWorkload(
            grid, [("advect", nn), ("diffuse", nn)]
        )
        # Cartesian mappers see the union of the stages' offsets ...
        assert set(program.stencil.offsets) == set(nn.offsets)
        # ... but the cost edges keep per-stage multiplicity: the shared
        # exchange counts twice.
        single = communication_edges(grid, nn)
        assert program.num_edges == 2 * single.shape[0]
        assert program.cartesian_equivalent() is None

    def test_stage_labels_and_names(self):
        grid = CartesianGrid([4, 4])
        program = StencilProgramWorkload(
            grid, [nearest_neighbor(2), ("heat", nearest_neighbor_with_hops(2))]
        )
        assert [label for label, _ in program.stages] == ["stage0", "heat"]
        assert "stage0+heat" in program.name

    def test_content_key_tracks_stage_order(self):
        grid = CartesianGrid([4, 4])
        nn, hops = nearest_neighbor(2), nearest_neighbor_with_hops(2)
        ab = StencilProgramWorkload(grid, [("a", nn), ("b", hops)])
        ba = StencilProgramWorkload(grid, [("b", hops), ("a", nn)])
        assert ab.content_key() != ba.content_key()
        again = StencilProgramWorkload(grid, [("a", nn), ("b", hops)])
        assert ab.content_key() == again.content_key()

    def test_validation(self):
        grid = CartesianGrid([4, 4])
        with pytest.raises(ReproError, match="at least one stage"):
            StencilProgramWorkload(grid, [])
        with pytest.raises(ReproError, match="must hold a Stencil"):
            StencilProgramWorkload(grid, [("bad", 42)])


class TestGraphWorkload:
    def test_edge_validation(self):
        with pytest.raises(ReproError, match=r"shape \(m, 2\)"):
            GraphWorkload(4, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ReproError, match="endpoints"):
            GraphWorkload(4, [[0, 4]])
        with pytest.raises(ReproError, match="positive"):
            GraphWorkload(0, [])

    def test_edges_are_read_only(self):
        w = GraphWorkload(4, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            w.comm_edges()[0, 0] = 3

    def test_keeps_a_private_copy_of_the_edges(self):
        edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
        w = GraphWorkload(4, edges)
        digest = w.edge_digest()
        assert edges.flags.writeable
        edges[0] = [2, 3]
        assert w.comm_edges().tolist() == [[0, 1], [1, 0]]
        same = GraphWorkload(4, [[0, 1], [1, 0]])
        assert w.edge_digest() == digest == same.edge_digest()

    def test_as_workload_coercion(self):
        generated = random_sparse_workload(10, 3, seed=7)
        w = as_workload(generated)
        assert isinstance(w, GraphWorkload)
        assert w.num_processes == 10 and w.name == generated.name
        assert as_workload(w) is w
        with pytest.raises(TypeError, match="cannot interpret"):
            as_workload(3.14)


class TestWorkloadsThroughEngine:
    def test_cartesian_workload_bit_identical_to_plain_request(self):
        """The tentpole invariant: a CartesianWorkload request shares
        caches, content keys, and results with the classic spelling."""
        from repro.engine.diskcache import request_payload

        grid = CartesianGrid([6, 4])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(4, 6)
        plain = repro.MappingRequest(grid, stencil, alloc, "hyperplane")
        via = repro.MappingRequest(
            workload=CartesianWorkload(grid, stencil),
            alloc=alloc,
            mapper="hyperplane",
        )
        assert plain.instance_key == via.instance_key
        assert request_payload(plain) == request_payload(via)
        with repro.EvaluationEngine() as engine:
            a, b = engine.evaluate_batch([plain, via])
        assert a.perm.tobytes() == b.perm.tobytes()
        assert (a.cost.jsum, a.cost.jmax) == (b.cost.jsum, b.cost.jmax)

    def test_program_workload_weighs_repeated_stages(self):
        grid = CartesianGrid([6, 6])
        nn = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(4, 9)
        single = repro.MappingRequest(grid, nn, alloc, "blocked")
        double = repro.MappingRequest(
            workload=StencilProgramWorkload(grid, [nn, nn]),
            alloc=alloc,
            mapper="blocked",
        )
        with repro.EvaluationEngine() as engine:
            one, two = engine.evaluate_batch([single, double])
        assert two.cost.jsum == 2 * one.cost.jsum
        assert two.cost.jmax == 2 * one.cost.jmax

    def test_graph_workload_needs_graph_mapper(self):
        w = as_workload(random_sparse_workload(24, 3, seed=5))
        alloc = NodeAllocation.homogeneous(4, 6)
        request = repro.MappingRequest(workload=w, alloc=alloc, mapper="blocked")
        with repro.EvaluationEngine() as engine:
            (result,) = engine.evaluate_batch([request])
            assert result.error is not None and "graphmap" in result.error
            good = repro.MappingRequest(workload=w, alloc=alloc, mapper="graphmap")
            (mapped,) = engine.evaluate_batch([good])
        assert mapped.error is None
        assert sorted(mapped.perm.tolist()) == list(range(24))

    def test_conflicting_grid_rejected(self):
        w = CartesianWorkload(CartesianGrid([4, 4]), nearest_neighbor(2))
        with pytest.raises(MappingError, match="workload alone"):
            repro.MappingRequest(
                grid=CartesianGrid([2, 8]),
                alloc=NodeAllocation.homogeneous(4, 4),
                mapper="blocked",
                workload=w,
            )

    def test_generator_output_must_be_coerced(self):
        generated = random_sparse_workload(16, 3, seed=2)
        with pytest.raises(MappingError, match="as_workload"):
            repro.MappingRequest(
                workload=generated,
                alloc=NodeAllocation.homogeneous(4, 4),
                mapper="graphmap",
            )
