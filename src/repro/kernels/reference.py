"""The stacked-NumPy traversals behind the batch cost kernels.

Each function scores a ``(batch, edges)`` iteration space with one
gather and one flat ``bincount`` per memory slice.  Validation, edge
enumeration and the final scalar reductions live in the entry points of
:mod:`repro.kernels`, which call these functions directly.
"""

from __future__ import annotations

import numpy as np

#: Largest ``batch x edges`` product materialised at once; bigger
#: batches are processed in row slices to bound peak memory.
BATCH_CELL_LIMIT = 1 << 24


def scatter_nodes(perms: np.ndarray, node_of_ranks: np.ndarray) -> np.ndarray:
    """Node index of each grid vertex for a stack of mappings.

    One fancy assignment replaces ``b`` separate scatters.
    """
    b, p = perms.shape
    nodes = np.empty((b, p), dtype=np.int64)
    rows = np.arange(b, dtype=np.int64)[:, None]
    nodes[rows, perms] = node_of_ranks[None, :]
    return nodes


def cut_counts(
    edges: np.ndarray, vertex_nodes: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Outgoing inter-node edge counts, one gather + flat ``bincount``
    per memory slice instead of ``b`` separate passes."""
    b = vertex_nodes.shape[0]
    m = edges.shape[0]
    out = np.empty((b, num_nodes), dtype=np.int64)
    step = max(1, BATCH_CELL_LIMIT // max(1, m))
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        chunk = vertex_nodes[lo:hi]
        src_nodes = chunk[:, edges[:, 0]]  # (rows, m)
        cut = src_nodes != chunk[:, edges[:, 1]]
        rows = np.arange(hi - lo, dtype=np.int64)[:, None]
        flat = (src_nodes + rows * num_nodes)[cut]
        out[lo:hi] = np.bincount(
            flat, minlength=(hi - lo) * num_nodes
        ).reshape(hi - lo, num_nodes)
    return out


def weighted_cut(
    edges: np.ndarray,
    vertex_nodes: np.ndarray,
    num_nodes: int,
    edge_bytes: np.ndarray,
) -> np.ndarray:
    """Per-node outgoing inter-node *bytes* (float64 ``(b, N)``).

    Each row's weighted ``bincount`` accumulates its edge bytes in edge
    order, the float association of the serial per-mapping path.
    """
    b = vertex_nodes.shape[0]
    m = edges.shape[0]
    out = np.empty((b, num_nodes), dtype=np.float64)
    step = max(1, BATCH_CELL_LIMIT // max(1, m))
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        chunk = vertex_nodes[lo:hi]
        src_nodes = chunk[:, edges[:, 0]]  # (rows, m)
        cut = src_nodes != chunk[:, edges[:, 1]]
        rows = np.arange(hi - lo, dtype=np.int64)[:, None]
        flat = (src_nodes + rows * num_nodes)[cut]
        flat_bytes = np.broadcast_to(edge_bytes, cut.shape)[cut]
        out[lo:hi] = np.bincount(
            flat, weights=flat_bytes, minlength=(hi - lo) * num_nodes
        ).reshape(hi - lo, num_nodes)
    return out


def hop_weighted_cut(
    edges: np.ndarray,
    vertex_nodes: np.ndarray,
    node_weights: np.ndarray,
) -> np.ndarray:
    """Per-node outgoing cost under a node-pair weight matrix.

    Like :func:`weighted_cut`, but the weight of an edge is looked up
    from ``node_weights[src_node, dst_node]`` — the hop/contention cost
    the interconnect charges that node pair.  Each row's weighted
    ``bincount`` accumulates in edge order, like :func:`weighted_cut`.
    """
    b = vertex_nodes.shape[0]
    m = edges.shape[0]
    num_nodes = node_weights.shape[0]
    out = np.empty((b, num_nodes), dtype=np.float64)
    step = max(1, BATCH_CELL_LIMIT // max(1, m))
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        chunk = vertex_nodes[lo:hi]
        src_nodes = chunk[:, edges[:, 0]]  # (rows, m)
        dst_nodes = chunk[:, edges[:, 1]]
        cut = src_nodes != dst_nodes
        rows = np.arange(hi - lo, dtype=np.int64)[:, None]
        flat = (src_nodes + rows * num_nodes)[cut]
        flat_weights = node_weights[src_nodes[cut], dst_nodes[cut]]
        out[lo:hi] = np.bincount(
            flat, weights=flat_weights, minlength=(hi - lo) * num_nodes
        ).reshape(hi - lo, num_nodes)
    return out
