"""The batch cost kernels every evaluation path bottoms out in.

Every execution tier — serial, process, service — scores
mappings through the five entry points below
(:func:`node_of_vertex_batch`, :func:`per_node_cut_batch`,
:func:`evaluate_mappings_batch`, :func:`weighted_cut_bytes_batch`,
:func:`hop_weighted_cut_batch`).  They own validation, edge enumeration
and the final scalar reductions; the stacked-NumPy traversals they call
live in :mod:`repro.kernels.reference`.

The float64 kernels accumulate each row's weights in edge order, so a
batch row is bit-identical to the serial per-mapping evaluation and to a
plain per-edge loop (``tests/test_kernels.py`` asserts both).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import MappingError
from ..grid.graph import communication_edges, communication_edges_by_offset
from ..metrics.cost import MappingCost, _costs_from_cuts, check_permutations
from . import reference

__all__ = [
    "node_of_vertex_batch",
    "per_node_cut_batch",
    "evaluate_mappings_batch",
    "weighted_cut_bytes_batch",
    "hop_weighted_cut_batch",
]


def node_of_vertex_batch(perms: np.ndarray, alloc) -> np.ndarray:
    """Node index of each grid vertex for a stack of mappings.

    ``perms`` has shape ``(b, p)``; the result has the same shape with
    row ``i`` equal to ``node_of_vertex(perms[i], alloc)``.
    """
    perms = check_permutations(perms, alloc.total_processes)
    return reference.scatter_nodes(perms, alloc.node_of_ranks())


def per_node_cut_batch(
    edges: np.ndarray, vertex_nodes: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Outgoing inter-node edge counts for a stack of mappings.

    ``vertex_nodes`` has shape ``(b, p)``; the result has shape
    ``(b, num_nodes)`` with row ``i`` equal to
    ``per_node_cut(edges, vertex_nodes[i], num_nodes)``.
    """
    vertex_nodes = np.asarray(vertex_nodes, dtype=np.int64)
    if vertex_nodes.ndim != 2:
        raise MappingError(
            f"vertex_nodes must be 2-d (b, p), got shape {vertex_nodes.shape}"
        )
    b = vertex_nodes.shape[0]
    if edges.size == 0 or b == 0:
        return np.zeros((b, num_nodes), dtype=np.int64)
    return reference.cut_counts(edges, vertex_nodes, num_nodes)


def evaluate_mappings_batch(
    grid,
    stencil,
    perms: np.ndarray,
    alloc,
    *,
    edges: np.ndarray | None = None,
) -> list[MappingCost]:
    """Evaluate a stack of ``(b, p)`` mapping permutations at once.

    Equivalent to ``[evaluate_mapping(grid, stencil, p, alloc) for p in
    perms]`` but scores the whole batch with the stacked kernels,
    sharing one edge enumeration and one gather across all mappings.
    ``edges`` accepts a cached edge array; with one supplied,
    ``grid``/``stencil`` may be ``None`` (general-workload requests have
    no Cartesian structure to enumerate from).
    """
    if grid is not None:
        alloc.check_matches(grid.size)
    if edges is None:
        if grid is None:
            raise MappingError(
                "evaluate_mappings_batch needs a grid/stencil pair or a "
                "precomputed edges array"
            )
        edges = communication_edges(grid, stencil)
    nodes = node_of_vertex_batch(perms, alloc)
    cuts = per_node_cut_batch(edges, nodes, alloc.num_nodes)
    return _costs_from_cuts(cuts, int(edges.shape[0]))


def weighted_cut_bytes_batch(
    grid,
    stencil,
    perms: np.ndarray,
    alloc,
    offset_bytes,
    *,
    edges: np.ndarray | None = None,
    offset_index: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Volume-weighted cuts for a stack of ``(b, p)`` mapping permutations.

    Returns one ``(total inter-node bytes, bottleneck bytes)`` pair per
    row of *perms*, bit-identical to the serial
    :func:`repro.metrics.cost.weighted_cut_bytes`: each row's per-node
    bytes accumulate in edge order.  ``edges``/``offset_index`` accept
    the cached output of
    :func:`~repro.grid.graph.communication_edges_by_offset`.
    """
    missing = [off for off in stencil.offsets if off not in offset_bytes]
    if missing:
        raise MappingError(f"offset_bytes missing entries for {missing}")
    if edges is None or offset_index is None:
        edges, offset_index = communication_edges_by_offset(grid, stencil)
    nodes = node_of_vertex_batch(perms, alloc)
    b = nodes.shape[0]
    if edges.shape[0] == 0 or b == 0:
        return [(0.0, 0.0)] * b
    weights = np.array([float(offset_bytes[off]) for off in stencil.offsets])
    edge_bytes = weights[offset_index]
    per_node = reference.weighted_cut(edges, nodes, alloc.num_nodes, edge_bytes)
    return [(float(per_node[i].sum()), float(per_node[i].max())) for i in range(b)]


def hop_weighted_cut_batch(
    edges: np.ndarray,
    vertex_nodes: np.ndarray,
    node_weights: np.ndarray,
) -> np.ndarray:
    """Per-node weighted cut under a node-pair weight matrix.

    ``node_weights`` is an ``(N, N)`` float64 matrix charging each
    inter-node edge ``W[src_node, dst_node]`` — hop distances, or
    contention-scaled hop distances, of a
    :class:`~repro.hardware.Topology`.  The result has shape ``(b, N)``:
    row ``i``, column ``n`` is the total weighted cost of node ``n``'s
    outgoing inter-node edges under mapping ``i``, accumulated in edge
    order.  Intra-node edges never contribute, whatever the matrix
    diagonal holds.
    """
    vertex_nodes = np.asarray(vertex_nodes, dtype=np.int64)
    if vertex_nodes.ndim != 2:
        raise MappingError(
            f"vertex_nodes must be 2-d (b, p), got shape {vertex_nodes.shape}"
        )
    node_weights = np.ascontiguousarray(node_weights, dtype=np.float64)
    if node_weights.ndim != 2 or node_weights.shape[0] != node_weights.shape[1]:
        raise MappingError(
            f"node_weights must be a square (N, N) matrix, got shape "
            f"{node_weights.shape}"
        )
    b = vertex_nodes.shape[0]
    num_nodes = node_weights.shape[0]
    if vertex_nodes.size and int(vertex_nodes.max()) >= num_nodes:
        raise MappingError(
            f"vertex_nodes reference node {int(vertex_nodes.max())} but "
            f"node_weights covers only {num_nodes} node(s)"
        )
    if edges.size == 0 or b == 0:
        return np.zeros((b, num_nodes), dtype=np.float64)
    return reference.hop_weighted_cut(edges, vertex_nodes, node_weights)
