"""Inter-node communication cost of a mapping (Section II objectives).

A *mapping* is represented throughout the library as a permutation array
``perm`` of length ``p`` with ``perm[old_rank] = new_rank``: the process
with scheduler rank ``old_rank`` (which fixes its compute node) occupies
the grid position whose row-major index is ``new_rank``.  This is exactly
the reorder semantics of ``MPI_Cart_create``.

Cost definitions (all on **directed** edges of the communication graph):

* ``Jsum``  — number of edges whose endpoints sit on different nodes,
* ``Jmax``  — the largest number of *outgoing* inter-node edges over all
  nodes (the bottleneck node ``N_b``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import MappingError
from ..grid.graph import communication_edges
from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil
from ..hardware.allocation import NodeAllocation

__all__ = [
    "node_of_vertex",
    "node_of_vertex_batch",
    "jsum",
    "jmax",
    "per_node_cut",
    "per_node_cut_batch",
    "MappingCost",
    "evaluate_mapping",
    "evaluate_mappings_batch",
    "reduction_over_blocked",
    "weighted_cut_bytes",
    "weighted_cut_bytes_batch",
    "hop_weighted_cut",
    "hop_weighted_cut_batch",
]

def check_permutation(perm: np.ndarray, size: int) -> np.ndarray:
    """Validate and normalise a mapping permutation.

    Raises :class:`MappingError` when *perm* is not a bijection on
    ``[0, size)`` — the invariant every mapper must satisfy.
    """
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (size,):
        raise MappingError(f"mapping has shape {perm.shape}, expected ({size},)")
    seen = np.zeros(size, dtype=bool)
    if perm.size:
        if perm.min() < 0 or perm.max() >= size:
            raise MappingError("mapping contains out-of-range ranks")
        seen[perm] = True
    if not seen.all():
        raise MappingError("mapping is not a permutation (duplicate targets)")
    return perm


def node_of_vertex(perm: np.ndarray, alloc: NodeAllocation) -> np.ndarray:
    """Node index of each grid vertex under the mapping.

    Grid vertex ``v`` (row-major position ``v``) is occupied by the old
    rank ``r`` with ``perm[r] = v``; its node is ``alloc.node_of(r)``.
    """
    perm = check_permutation(perm, alloc.total_processes)
    nodes = np.empty(alloc.total_processes, dtype=np.int64)
    nodes[perm] = alloc.node_of_ranks()
    return nodes


def check_permutations(perms: np.ndarray, size: int) -> np.ndarray:
    """Validate a stacked ``(b, size)`` array of mapping permutations.

    The batched analogue of :func:`check_permutation`: every row must be
    a bijection on ``[0, size)``.
    """
    perms = np.asarray(perms, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != size:
        raise MappingError(
            f"batched mapping has shape {perms.shape}, expected (b, {size})"
        )
    if perms.size:
        if perms.min() < 0 or perms.max() >= size:
            raise MappingError("mapping contains out-of-range ranks")
        # O(b*p) boolean scatter, the row-wise analogue of check_permutation
        seen = np.zeros(perms.shape, dtype=bool)
        seen[np.arange(perms.shape[0])[:, None], perms] = True
        if not seen.all():
            raise MappingError("mapping is not a permutation (duplicate targets)")
    return perms


def node_of_vertex_batch(perms: np.ndarray, alloc: NodeAllocation) -> np.ndarray:
    """Node index of each grid vertex for a stack of mappings.

    ``perms`` has shape ``(b, p)``; the result has the same shape with
    row ``i`` equal to ``node_of_vertex(perms[i], alloc)``.  Forwards
    to :mod:`repro.kernels` (kept for call-site compatibility).
    """
    from .. import kernels

    return kernels.node_of_vertex_batch(perms, alloc)


def jsum(edges: np.ndarray, vertex_nodes: np.ndarray) -> int:
    """Total inter-node communication ``Jsum`` over directed *edges*."""
    if edges.size == 0:
        return 0
    return int(
        np.count_nonzero(vertex_nodes[edges[:, 0]] != vertex_nodes[edges[:, 1]])
    )


def per_node_cut(
    edges: np.ndarray, vertex_nodes: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Outgoing inter-node edge count of every node.

    Entry ``i`` is ``|{(u, v) in E : M(u) = i, M(v) != i}|``.
    """
    if edges.size == 0:
        return np.zeros(num_nodes, dtype=np.int64)
    src_nodes = vertex_nodes[edges[:, 0]]
    dst_nodes = vertex_nodes[edges[:, 1]]
    cut = src_nodes != dst_nodes
    return np.bincount(src_nodes[cut], minlength=num_nodes).astype(np.int64)


def per_node_cut_batch(
    edges: np.ndarray, vertex_nodes: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Outgoing inter-node edge counts for a stack of mappings.

    ``vertex_nodes`` has shape ``(b, p)``; the result has shape
    ``(b, num_nodes)`` with row ``i`` equal to
    ``per_node_cut(edges, vertex_nodes[i], num_nodes)``.  Forwards to
    :mod:`repro.kernels`.
    """
    from .. import kernels

    return kernels.per_node_cut_batch(edges, vertex_nodes, num_nodes)


def jmax(edges: np.ndarray, vertex_nodes: np.ndarray, num_nodes: int) -> int:
    """Bottleneck-node cost ``Jmax`` (largest outgoing inter-node count)."""
    cuts = per_node_cut(edges, vertex_nodes, num_nodes)
    return int(cuts.max()) if cuts.size else 0


@dataclass(frozen=True)
class MappingCost:
    """Full cost breakdown of one mapping on one instance."""

    jsum: int
    jmax: int
    total_edges: int
    per_node: np.ndarray = field(repr=False)
    bottleneck_node: int

    @property
    def intra_edges(self) -> int:
        """Number of directed edges staying inside a node."""
        return self.total_edges - self.jsum

    @property
    def cut_fraction(self) -> float:
        """``Jsum`` as a fraction of all directed edges."""
        return self.jsum / self.total_edges if self.total_edges else 0.0


def evaluate_mapping(
    grid: CartesianGrid,
    stencil: Stencil,
    perm: np.ndarray,
    alloc: NodeAllocation,
    *,
    edges: np.ndarray | None = None,
) -> MappingCost:
    """Evaluate ``Jsum``/``Jmax`` of a mapping permutation.

    Parameters
    ----------
    edges:
        Optional pre-computed edge array from
        :func:`~repro.grid.graph.communication_edges`; pass it when
        evaluating many mappings of the same instance.
    """
    alloc.check_matches(grid.size)
    if edges is None:
        edges = communication_edges(grid, stencil)
    nodes = node_of_vertex(perm, alloc)
    cuts = per_node_cut(edges, nodes, alloc.num_nodes)
    total_jsum = int(cuts.sum())
    bottleneck = int(cuts.argmax()) if cuts.size else 0
    return MappingCost(
        jsum=total_jsum,
        jmax=int(cuts.max()) if cuts.size else 0,
        total_edges=int(edges.shape[0]),
        per_node=cuts,
        bottleneck_node=bottleneck,
    )


def _costs_from_cuts(cuts: np.ndarray, total_edges: int) -> list[MappingCost]:
    """Wrap batched ``(b, N)`` cut rows into :class:`MappingCost` objects."""
    jsums = cuts.sum(axis=1)
    if cuts.shape[1]:
        jmaxs = cuts.max(axis=1)
        bottlenecks = cuts.argmax(axis=1)
    else:  # pragma: no cover - allocations always have >= 1 node
        jmaxs = np.zeros(cuts.shape[0], dtype=np.int64)
        bottlenecks = np.zeros(cuts.shape[0], dtype=np.int64)
    return [
        MappingCost(
            jsum=int(jsums[i]),
            jmax=int(jmaxs[i]),
            total_edges=total_edges,
            # copy: a view would share one writable buffer across the whole
            # batch and pin the full (b, N) array for each cost's lifetime
            per_node=cuts[i].copy(),
            bottleneck_node=int(bottlenecks[i]),
        )
        for i in range(cuts.shape[0])
    ]


def evaluate_mappings_batch(
    grid: CartesianGrid,
    stencil: Stencil,
    perms: np.ndarray,
    alloc: NodeAllocation,
    *,
    edges: np.ndarray | None = None,
) -> list[MappingCost]:
    """Evaluate a stack of ``(b, p)`` mapping permutations at once.

    Equivalent to ``[evaluate_mapping(grid, stencil, p, alloc) for p in
    perms]`` but scores the whole batch with the stacked kernels,
    sharing one edge enumeration and one gather across all mappings.
    Forwards to :mod:`repro.kernels`.  ``edges`` accepts a cached edge
    array.
    """
    from .. import kernels

    return kernels.evaluate_mappings_batch(
        grid, stencil, perms, alloc, edges=edges
    )


def weighted_cut_bytes(
    grid: CartesianGrid,
    stencil: Stencil,
    perm: np.ndarray,
    alloc: NodeAllocation,
    offset_bytes,
) -> tuple[float, float]:
    """Volume-weighted cut: ``(total inter-node bytes, bottleneck bytes)``.

    The weighted analogue of ``(Jsum, Jmax)`` when each stencil offset
    carries a different payload (``offset_bytes``: offset tuple ->
    bytes, e.g. from :func:`repro.workloads.halo_exchange_volume`).
    A batch of one of :func:`weighted_cut_bytes_batch`, so the serial
    and batched paths are bit-identical by construction.
    """
    perm = check_permutation(perm, alloc.total_processes)
    return weighted_cut_bytes_batch(
        grid, stencil, perm[None, :], alloc, offset_bytes
    )[0]


def weighted_cut_bytes_batch(
    grid: CartesianGrid,
    stencil: Stencil,
    perms: np.ndarray,
    alloc: NodeAllocation,
    offset_bytes,
    *,
    edges: np.ndarray | None = None,
    offset_index: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Volume-weighted cuts for a stack of ``(b, p)`` mapping permutations.

    Returns one ``(total inter-node bytes, bottleneck bytes)`` pair per
    row of *perms*.  The per-offset edge enumeration and the weight
    gather are shared across the whole batch; each row's weighted
    ``bincount`` accumulates its edge bytes in the same order as the
    scalar path, so results are bit-identical to calling
    :func:`weighted_cut_bytes` row by row.  ``edges``/``offset_index``
    accept the cached output of
    :func:`~repro.grid.graph.communication_edges_by_offset`.
    """
    from .. import kernels

    return kernels.weighted_cut_bytes_batch(
        grid,
        stencil,
        perms,
        alloc,
        offset_bytes,
        edges=edges,
        offset_index=offset_index,
    )


def hop_weighted_cut(
    edges: np.ndarray,
    perm: np.ndarray,
    alloc: NodeAllocation,
    node_weights: np.ndarray,
) -> tuple[float, float]:
    """Topology-weighted cut: ``(total hop cost, bottleneck hop cost)``.

    Each directed inter-node edge is charged
    ``node_weights[src_node, dst_node]`` — e.g. the hop-distance (or
    contention-scaled) matrix of a :class:`~repro.hardware.Topology`.
    Works on any edge array, so it covers every workload family, not
    just grid x stencil graphs.  A batch of one of
    :func:`hop_weighted_cut_batch`, so the serial and batched paths are
    bit-identical by construction.
    """
    perm = check_permutation(perm, alloc.total_processes)
    per_node = hop_weighted_cut_batch(edges, perm[None, :], alloc, node_weights)
    return float(per_node[0].sum()), float(per_node[0].max())


def hop_weighted_cut_batch(
    edges: np.ndarray,
    perms: np.ndarray,
    alloc: NodeAllocation,
    node_weights: np.ndarray,
) -> np.ndarray:
    """Per-node topology-weighted cuts for a stack of mappings.

    Returns a ``(b, num_nodes)`` float64 array; row ``i``, column ``n``
    is the total weighted cost of node ``n``'s outgoing inter-node
    edges under mapping ``i``.  Forwards to :mod:`repro.kernels`;
    accumulation follows edge order, so a row is bit-identical to
    :func:`hop_weighted_cut`.
    """
    from .. import kernels

    nodes = kernels.node_of_vertex_batch(perms, alloc)
    return kernels.hop_weighted_cut_batch(edges, nodes, node_weights)


def reduction_over_blocked(cost: MappingCost, blocked_cost: MappingCost) -> tuple[float, float]:
    """Reduction pair ``(Jsum_X / Jsum_blocked, Jmax_X / Jmax_blocked)``.

    This is the quantity plotted in Figure 8; values below 1 mean the
    mapping improves on the scheduler's blocked placement.  A blocked cost
    of zero (no inter-node communication at all) yields a reduction of 1
    when the compared cost is also zero, and ``inf`` otherwise.
    """

    def ratio(x: int, base: int) -> float:
        if base == 0:
            return 1.0 if x == 0 else float("inf")
        return x / base

    return ratio(cost.jsum, blocked_cost.jsum), ratio(cost.jmax, blocked_cost.jmax)
