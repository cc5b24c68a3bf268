"""Tests of the batch cost kernels (:mod:`repro.kernels`).

The float64 kernels are checked against a plain per-edge Python loop
with exact equality: both sides accumulate each node's weight in edge
order, so even the last ulp must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.grid.graph import communication_edges_by_offset
from repro.kernels import (
    evaluate_mappings_batch,
    hop_weighted_cut_batch,
    node_of_vertex_batch,
    per_node_cut_batch,
    weighted_cut_bytes_batch,
)
from repro.metrics.cost import evaluate_mapping, weighted_cut_bytes

from .conftest import allocations_for, grids, stencils_for


def random_perms(p: int, b: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(p) for _ in range(b)]).astype(np.int64)


def per_edge_loop(edges, row, num_nodes, edge_weight) -> np.ndarray:
    """Per-node outgoing inter-node weight, one directed edge at a time.

    ``edge_weight(e, src_node, dst_node)`` is the weight of edge ``e``;
    each node's total accumulates in edge order.
    """
    out = np.zeros(num_nodes)
    for e, (u, v) in enumerate(edges):
        if row[u] != row[v]:
            out[row[u]] += edge_weight(e, row[u], row[v])
    return out


@given(grids(max_ndim=3, max_size=96), st.data())
@settings(max_examples=30, deadline=None)
def test_float_kernels_match_per_edge_loop(grid, data):
    """``weighted_cut_bytes_batch`` and ``hop_weighted_cut_batch`` equal
    the per-edge loop bit for bit on random instances."""
    stencil = data.draw(stencils_for(grid.ndim))
    alloc = data.draw(allocations_for(grid.size))
    seed = data.draw(st.integers(0, 2**31 - 1))
    perms = random_perms(grid.size, data.draw(st.integers(1, 4)), seed=seed)
    rng = np.random.default_rng(seed + 1)
    volumes = dict(
        zip(stencil.offsets, rng.uniform(0.1, 1e6, size=stencil.k).tolist())
    )
    n = alloc.num_nodes
    hops = rng.uniform(0.0, 9.0, size=(n, n))
    edges, offset_index = communication_edges_by_offset(grid, stencil)
    edge_bytes = [volumes[stencil.offsets[i]] for i in offset_index]

    nodes = node_of_vertex_batch(perms, alloc)
    pairs = weighted_cut_bytes_batch(grid, stencil, perms, alloc, volumes)
    hop = hop_weighted_cut_batch(edges, nodes, hops)
    for i, row in enumerate(nodes):
        manual = per_edge_loop(edges, row, n, lambda e, a, b: edge_bytes[e])
        assert pairs[i] == (float(manual.sum()), float(manual.max()))
        manual = per_edge_loop(edges, row, n, lambda e, a, b: hops[a, b])
        assert hop[i].tobytes() == manual.tobytes()


def test_batch_matches_serial_evaluation():
    """The batch kernels equal the serial per-mapping evaluation."""
    grid = repro.CartesianGrid([6, 4, 2])
    stencil = repro.nearest_neighbor_with_hops(3)
    alloc = repro.NodeAllocation.homogeneous(8, 6)
    perms = random_perms(grid.size, 7, seed=23)
    costs = evaluate_mappings_batch(grid, stencil, perms, alloc)
    for row, cost in zip(perms, costs):
        serial = evaluate_mapping(grid, stencil, row, alloc)
        assert (cost.jsum, cost.jmax, cost.total_edges,
                cost.bottleneck_node) == (
            serial.jsum, serial.jmax, serial.total_edges,
            serial.bottleneck_node)
        assert cost.per_node.tobytes() == serial.per_node.tobytes()

    volumes = {off: float(8 * (i + 1)) for i, off in enumerate(stencil.offsets)}
    pairs = weighted_cut_bytes_batch(grid, stencil, perms, alloc, volumes)
    for row, (total, bottleneck) in zip(perms, pairs):
        serial_total, serial_bottleneck = weighted_cut_bytes(
            grid, stencil, row, alloc, volumes
        )
        assert (total, bottleneck) == (serial_total, serial_bottleneck)


def test_hop_weighted_cut_validation_and_empties():
    alloc = repro.NodeAllocation.homogeneous(4, 4)
    nodes = node_of_vertex_batch(random_perms(16, 2, seed=1), alloc)
    eye = np.eye(4)
    no_edges = np.empty((0, 2), dtype=np.int64)
    out = hop_weighted_cut_batch(no_edges, nodes, eye)
    assert out.shape == (2, 4) and not out.any()
    from repro.exceptions import MappingError

    edges = np.array([[0, 1]], dtype=np.int64)
    with pytest.raises(MappingError, match="square"):
        hop_weighted_cut_batch(edges, nodes, np.ones((4, 3)))
    with pytest.raises(MappingError, match="covers only"):
        hop_weighted_cut_batch(edges, nodes, np.ones((2, 2)))
    with pytest.raises(MappingError, match="2-d"):
        hop_weighted_cut_batch(edges, nodes[0], eye)


def test_hop_weighted_cut_matches_manual_sum():
    """Cross-check the kernel against a direct per-edge loop."""
    grid = repro.CartesianGrid([4, 4])
    stencil = repro.nearest_neighbor(2)
    alloc = repro.NodeAllocation.homogeneous(4, 4)
    edges = repro.communication_edges(grid, stencil)
    perms = random_perms(16, 3, seed=21)
    nodes = node_of_vertex_batch(perms, alloc)
    weights = np.random.default_rng(3).uniform(0.5, 4.0, size=(4, 4))
    out = hop_weighted_cut_batch(edges, nodes, weights)
    for row, result in zip(nodes, out):
        manual = per_edge_loop(edges, row, 4, lambda e, a, b: weights[a, b])
        assert result.tobytes() == manual.tobytes()


def test_empty_and_degenerate_batches():
    """Zero rows and edgeless stencils yield empty results and zero cuts."""
    grid = repro.CartesianGrid([4, 4])
    stencil = repro.nearest_neighbor(2)
    alloc = repro.NodeAllocation.homogeneous(4, 4)
    empty = np.empty((0, grid.size), dtype=np.int64)
    assert evaluate_mappings_batch(grid, stencil, empty, alloc) == []
    nodes = node_of_vertex_batch(random_perms(16, 2, seed=1), alloc)
    no_edges = np.empty((0, 2), dtype=np.int64)
    cuts = per_node_cut_batch(no_edges, nodes, alloc.num_nodes)
    assert cuts.shape == (2, 4) and not cuts.any()
