"""A VieM-style general graph mapper (Schulz & Träff 2017 substitute).

The paper compares against VieM (Vienna Mapping), a sequential,
high-quality general process-mapping tool built on perfectly balanced
graph partitioning and randomised local search.  The original is C++ and
closed to this environment, so this module implements the same algorithmic
family from scratch:

1. **Recursive balanced bisection** of the communication graph over the
   node hierarchy (capacities follow the actual allocation, so
   heterogeneous node sizes are supported).  Each bisection uses greedy
   graph growing from a pseudo-peripheral seed vertex followed by
   swap-based Fiduccia–Mattheyses-flavoured refinement with exact balance.
2. **Randomised local search** on the final assignment: repeatedly pick a
   *cut* edge and try to swap its endpoints — the "swaps between any
   connected pair of vertices" neighbourhood the paper configures for
   VieM — accepting strict `Jsum` improvements.

The mapper is deliberately sequential and global (``distributed = False``)
— reproducing VieM's defining trade-off: similar mapping quality to the
specialised stencil algorithms at orders-of-magnitude higher instantiation
cost (Figure 9).

The mapper also accepts arbitrary communication graphs via
:meth:`GraphMapper.map_graph`, matching VieM's scope beyond Cartesian
instances.

Data layout
-----------
One :meth:`GraphMapper.map_graph` call aggregates the directed edges into
``E`` weighted undirected pairs sorted by ``(lo, hi)`` (:class:`_UndirectedCSR`)
and builds, once, Python neighbour and weight lists from their CSR
(:class:`_Adjacency`).  Every stage of the call shares those lists: the
pseudo-peripheral BFS, the growth loop, refinement's candidate-pair
weights and the local search.  Which vertices belong to the bisection in
progress is one byte per vertex in a ``bytearray`` that the Python loops
read and NumPy writes a whole level of at once.

Each recursion level owns the ascending array of its ``n`` vertices and
its ``m`` internal pairs renumbered to positions in that array: its
parent's pairs, filtered in order to the side it inherits.  One bisection
of a level therefore costs O(n + m) for the BFS, O((n + m) log m) for the
growth heap, and O(m + n log n) per refinement round (the gain sums and
two ``argsort`` calls); nothing it does scales with the whole graph.
Every vertex and pair belongs to one level per recursion depth, so
mapping onto ``k`` nodes makes O(log k) passes over the graph.  The local
search then makes one pass over its ``local_search_factor * E`` picks,
reading the neighbour lists of both endpoints of each pick whose pair is
cut.

On one host the output is a pure function of the inputs and the seed:
the same ``rng`` draws in the same order, neighbours in
:meth:`_UndirectedCSR.neighbors` order, heap ties broken by insertion
order, and a default-kind ``np.argsort`` of each side's int64 gains in
ascending vertex order.  That last sort breaks ties through NumPy's SIMD
sort where the CPU has one, so a permutation can differ between hosts
with different vector units.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .base import Mapper, register_mapper
from .._validation import check_edges
from ..exceptions import MappingError
from ..grid.graph import communication_edges
from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil
from ..hardware.allocation import NodeAllocation
from ..metrics.cost import check_permutation

__all__ = ["GraphMapper"]

#: Candidates per side that refinement pairs up for a swap.
_TOP = 16
#: Vertex states during one bisection; 0 is "outside the level".
_MEMBER, _GROWN, _SEEN = 1, 2, 3


class _UndirectedCSR:
    """Compact undirected weighted adjacency built from directed edges."""

    __slots__ = ("indptr", "indices", "weights", "num_vertices", "pairs", "pair_weights")

    def __init__(self, directed_edges: np.ndarray, num_vertices: int):
        self.num_vertices = num_vertices
        if directed_edges.size == 0:
            self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
            self.indices = np.empty(0, dtype=np.int64)
            self.weights = np.empty(0, dtype=np.int64)
            self.pairs = np.empty((0, 2), dtype=np.int64)
            self.pair_weights = np.empty(0, dtype=np.int64)
            return
        # Aggregate directed multiplicity per unordered pair: the weight of
        # {u, v} is the number of directed edges between them (1 or 2 for
        # simple stencils), so a cut pair contributes its weight to Jsum.
        lo = np.minimum(directed_edges[:, 0], directed_edges[:, 1])
        hi = np.maximum(directed_edges[:, 0], directed_edges[:, 1])
        key = lo * num_vertices + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        uniq, counts = np.unique(key, return_counts=True)
        pu, pv = np.divmod(uniq, num_vertices)
        self.pairs = np.stack([pu, pv], axis=1).astype(np.int64)
        self.pair_weights = counts.astype(np.int64)
        # Symmetric CSR.
        src = np.concatenate([pu, pv])
        dst = np.concatenate([pv, pu])
        w = np.concatenate([counts, counts]).astype(np.int64)
        order = np.argsort(src, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
        self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(self.indptr, src + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = dst.astype(np.int64)
        self.weights = w

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.weights[s:e]


class _Adjacency:
    """The Python adjacency one ``map_graph`` call shares across stages.

    ``nbrs[v]`` and ``wts[v]`` list *v*'s neighbours and pair weights in
    :meth:`_UndirectedCSR.neighbors` order (a self-loop appears twice).
    ``state`` holds one byte per vertex for the bisection in progress;
    ``view`` is the same memory as a NumPy array, for writing a level.
    """

    __slots__ = ("nbrs", "wts", "state", "view")

    def __init__(self, csr: _UndirectedCSR):
        ptr = csr.indptr.tolist()
        indices = csr.indices.tolist()
        weights = csr.weights.tolist()
        spans = list(zip(ptr, ptr[1:]))
        self.nbrs = [indices[s:e] for s, e in spans]
        self.wts = [weights[s:e] for s, e in spans]
        self.state = bytearray(csr.num_vertices)
        self.view = np.frombuffer(self.state, dtype=np.uint8)


class GraphMapper(Mapper):
    """General graph mapping via recursive bisection + local search.

    Parameters
    ----------
    seed:
        RNG seed (a non-negative integer); runs are deterministic for a
        fixed seed.
    refinement_swaps:
        Maximum improving swaps applied per bisection refinement (>= 0).
    local_search_factor:
        The global local-search budget is
        ``local_search_factor * (number of undirected edges)`` trial swaps
        (finite, >= 0); the paper's VieM setting prioritises quality over
        speed, so the default is generous.
    restarts:
        Independent runs with seeds ``seed, seed + 1, ...`` (>= 1); the
        smallest cut wins.
    """

    name = "graphmap"
    distributed = False

    def __init__(
        self,
        seed: int = 1,
        refinement_swaps: int = 64,
        local_search_factor: float = 4.0,
        restarts: int = 1,
    ):
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        if int(seed) < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if refinement_swaps < 0:
            raise ValueError(f"refinement_swaps must be >= 0, got {refinement_swaps}")
        if not (math.isfinite(local_search_factor) and local_search_factor >= 0):
            raise ValueError(
                "local_search_factor must be finite and >= 0, "
                f"got {local_search_factor}"
            )
        self._seed = int(seed)
        self._refinement_swaps = int(refinement_swaps)
        self._local_search_factor = float(local_search_factor)
        self._restarts = int(restarts)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def map_ranks(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        alloc: NodeAllocation,
    ) -> np.ndarray:
        self.validate_instance(grid, stencil, alloc)
        edges = communication_edges(grid, stencil)
        return self.map_graph(edges, grid.size, alloc)

    def compute_rank(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        alloc: NodeAllocation,
        rank: int,
    ) -> int:
        """Sequential fallback: compute the full mapping, then index.

        GraphMapper is *not* distributed; this mirrors running the
        sequential tool once and broadcasting the permutation.
        """
        rank = self._checked_rank(grid, rank)
        return int(self.map_ranks(grid, stencil, alloc)[rank])

    def map_workload(self, workload, alloc: NodeAllocation) -> np.ndarray:
        """Map any workload family: graphmap needs only the raw edges.

        Cartesian-capable workloads still go through :meth:`map_graph`
        on their merged communication graph, so stencil *programs* are
        mapped against their full weighted edge multiset rather than the
        union stencil.
        """
        return self.map_graph(
            workload.comm_edges(), workload.num_processes, alloc
        )

    def map_graph(
        self,
        directed_edges: np.ndarray,
        num_vertices: int,
        alloc: NodeAllocation,
    ) -> np.ndarray:
        """Map an arbitrary directed communication graph onto the nodes.

        Returns the permutation ``perm[old_rank] = vertex`` assigning the
        contiguous rank block of each node to the vertices chosen for it.
        *directed_edges* must have shape ``(m, 2)`` with endpoints in
        ``[0, num_vertices)``; anything else raises :class:`MappingError`.
        """
        if alloc.total_processes != num_vertices:
            raise MappingError(
                f"allocation covers {alloc.total_processes} processes but the "
                f"graph has {num_vertices} vertices"
            )
        directed_edges = check_edges(directed_edges, num_vertices, error=MappingError)
        csr = _UndirectedCSR(directed_edges, num_vertices)
        adj = _Adjacency(csr)
        node_sizes = list(alloc.node_sizes)
        pairs, weights = csr.pairs, csr.pair_weights

        # Multi-restart: run the whole pipeline with derived seeds and
        # keep the assignment with the smallest cut (VieM's quality-first
        # configuration corresponds to restarts > 1).
        best_assignment: np.ndarray | None = None
        best_cut = None
        for attempt in range(self._restarts):
            rng = np.random.default_rng(self._seed + attempt)
            vertex_node = np.full(num_vertices, -1, dtype=np.int64)
            self._recurse(
                adj,
                np.arange(num_vertices, dtype=np.int64),
                pairs[:, 0],
                pairs[:, 1],
                weights,
                list(range(alloc.num_nodes)),
                node_sizes,
                vertex_node,
                rng,
            )
            self._local_search(adj, csr, vertex_node, rng)
            cut = self._total_cut(csr, vertex_node)
            if best_cut is None or cut < best_cut:
                best_cut = cut
                best_assignment = vertex_node
        assert best_assignment is not None
        vertex_node = best_assignment

        # Convert the vertex->node assignment into a rank permutation: the
        # ranks of node i (a contiguous block) take its vertices in order.
        perm = np.empty(num_vertices, dtype=np.int64)
        order = np.argsort(vertex_node, kind="stable")
        perm[:] = order  # perm[old_rank] = vertex
        return check_permutation(perm, num_vertices)

    @staticmethod
    def _total_cut(csr: _UndirectedCSR, vertex_node: np.ndarray) -> int:
        """``Jsum`` of an assignment (directed edges across nodes)."""
        if csr.pairs.size == 0:
            return 0
        cut = vertex_node[csr.pairs[:, 0]] != vertex_node[csr.pairs[:, 1]]
        return int(csr.pair_weights[cut].sum())

    # ------------------------------------------------------------------
    # Recursive bisection
    # ------------------------------------------------------------------
    def _recurse(
        self,
        adj: _Adjacency,
        vertices: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        weights: np.ndarray,
        nodes: list[int],
        node_sizes: list[int],
        vertex_node: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Assign one level: ascending *vertices*, and its pairs
        ``(lo[i], hi[i])`` of weight ``weights[i]`` as positions in
        *vertices*, onto *nodes*."""
        if len(nodes) == 1:
            vertex_node[vertices] = nodes[0]
            return
        half = len(nodes) // 2
        cap_a = sum(node_sizes[i] for i in nodes[:half])
        in_a = self._bisect(adj, vertices, lo, hi, weights, cap_a, rng)
        for side, side_nodes in ((in_a, nodes[:half]), (~in_a, nodes[half:])):
            inside = side[lo] & side[hi]
            local = np.cumsum(side) - 1
            self._recurse(
                adj,
                vertices[side],
                local[lo[inside]],
                local[hi[inside]],
                weights[inside],
                side_nodes,
                node_sizes,
                vertex_node,
                rng,
            )

    def _bisect(
        self,
        adj: _Adjacency,
        vertices: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        weights: np.ndarray,
        cap_a: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Split a level; returns the mask of its ``cap_a`` side-A vertices."""
        nbrs, wts, state = adj.nbrs, adj.wts, adj.state
        adj.view[vertices] = _MEMBER
        v = self._pseudo_peripheral(adj, vertices, rng)

        # Greedy growth: always take the ungrown vertex most connected to
        # side A; stale heap entries (older gains) are skipped on pop.
        gain: dict[int, int] = {}
        heap: list[tuple[int, int, int]] = []
        counter = 0
        ungrown = None
        for step in range(cap_a):
            if step:
                while heap:
                    negg, _, v = heapq.heappop(heap)
                    if state[v] == _MEMBER and gain[v] == -negg:
                        break
                else:
                    # Disconnected remainder: take the lowest ungrown vertex.
                    if ungrown is None:
                        ungrown = iter(vertices.tolist())
                    for v in ungrown:
                        if state[v] == _MEMBER:
                            break
            state[v] = _GROWN
            for z, w in zip(nbrs[v], wts[v]):
                if state[z] == _MEMBER:
                    g = gain.get(z, 0) + w
                    gain[z] = g
                    heapq.heappush(heap, (-g, counter, z))
                    counter += 1

        in_a = adj.view[vertices] == _GROWN
        adj.view[vertices] = 0
        self._refine(adj, vertices, lo, hi, weights, in_a)
        return in_a

    @staticmethod
    def _pseudo_peripheral(
        adj: _Adjacency,
        vertices: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Farthest vertex of a BFS from a random vertex of the level."""
        nbrs, state = adj.nbrs, adj.state
        start = int(vertices[rng.integers(len(vertices))])
        state[start] = _SEEN
        frontier = [start]
        last = start
        while frontier:
            nxt = []
            for v in frontier:
                for z in nbrs[v]:
                    if state[z] == _MEMBER:
                        state[z] = _SEEN
                        nxt.append(z)
            if nxt:
                last = nxt[0]
            frontier = nxt
        adj.view[vertices] = _MEMBER
        return last

    def _refine(
        self,
        adj: _Adjacency,
        vertices: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        weights: np.ndarray,
        in_a: np.ndarray,
    ) -> None:
        """Swap-based balanced refinement of one bisection, in place."""
        if lo.size == 0:
            return
        neg_weights = -weights
        for _ in range(self._refinement_swaps):
            # Gain of moving each vertex to the other side: ext - int.
            sign = np.where(in_a[lo] != in_a[hi], weights, neg_weights)
            move_gain = np.zeros(len(vertices), dtype=np.int64)
            np.add.at(move_gain, lo, sign)
            np.add.at(move_gain, hi, sign)

            side_a = np.flatnonzero(in_a)
            side_b = np.flatnonzero(~in_a)
            best_a = side_a[np.argsort(move_gain[side_a])[::-1][:_TOP]]
            best_b = side_b[np.argsort(move_gain[side_b])[::-1][:_TOP]]
            # Swap gain of every candidate pair.  A direct a-b edge stays
            # cut under the swap, yet both move gains count it as saved.
            swap_gain = move_gain[best_a][:, None] + move_gain[best_b]
            column = {b: j for j, b in enumerate(vertices[best_b].tolist())}
            for i, a in enumerate(vertices[best_a].tolist()):
                for z, w in zip(adj.nbrs[a], adj.wts[a]):
                    j = column.get(z)
                    if j is not None:
                        swap_gain[i, j] -= 2 * w
            # argmax is the first maximum in row-major order, the pair a
            # scan of (a, b) keeping strictly better gains would pick.
            best = int(swap_gain.argmax())
            if swap_gain.flat[best] <= 0:
                return
            i, j = divmod(best, swap_gain.shape[1])
            in_a[best_a[i]] = False
            in_a[best_b[j]] = True

    # ------------------------------------------------------------------
    # Randomised local search on the final assignment
    # ------------------------------------------------------------------
    def _local_search(
        self,
        adj: _Adjacency,
        csr: _UndirectedCSR,
        vertex_node: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        pairs = csr.pairs
        if pairs.size == 0:
            return
        trials = int(self._local_search_factor * len(pairs))
        if trials <= 0:
            return
        picks = rng.integers(len(pairs), size=trials)
        first, second = pairs[picks, 0], pairs[picks, 1]
        nbrs, wts = adj.nbrs, adj.wts
        node = vertex_node.tolist()
        # Memoryviews yield the picks as Python ints one at a time; as two
        # lists they raised perfbench paper_serial_cold's peak RSS by 2%.
        for u, v in zip(memoryview(first), memoryview(second)):
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

    def __repr__(self) -> str:
        return (
            f"GraphMapper(seed={self._seed}, "
            f"refinement_swaps={self._refinement_swaps}, "
            f"local_search_factor={self._local_search_factor}, "
            f"restarts={self._restarts})"
        )


register_mapper(GraphMapper.name, GraphMapper)
