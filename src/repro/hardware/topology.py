"""Interconnect topologies of the evaluation machines (Table I).

The paper assumes homogeneous inter-node communication performance
(Section II), so the *primary* cost model treats every node pair alike.
The topology classes nevertheless model the real structure — two-level
fat trees with a blocking factor (VSC4, JUWELS) and island systems with
pruned inter-island links (SuperMUC-NG) — because the cost model offers a
topology-aware extension that charges shared up-link contention; the
ablation benchmarks use it to probe how far the homogeneity assumption
carries.

Nodes are numbered ``0..N-1`` and fill leaf switches (and islands) in
order, matching how schedulers allocate contiguous node blocks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .._validation import as_int, as_real
from ..exceptions import ReproError

__all__ = [
    "Topology",
    "SingleSwitchTopology",
    "FatTreeTopology",
    "IslandTopology",
    "Torus3DTopology",
    "DragonflyTopology",
    "topology_from_spec",
]


class Topology(ABC):
    """Abstract interconnect: hop distances and shared-link groups."""

    def __init__(self, num_nodes: int):
        num_nodes = as_int(num_nodes, name="num_nodes")
        if num_nodes <= 0:
            raise ReproError(f"num_nodes must be positive, got {num_nodes}")
        self._num_nodes = num_nodes

    @property
    def num_nodes(self) -> int:
        """Number of compute nodes attached to the fabric."""
        return self._num_nodes

    @abstractmethod
    def hop_distance(self, a: int, b: int) -> int:
        """Switch hops between nodes *a* and *b* (0 when ``a == b``)."""

    @abstractmethod
    def leaf_of(self, node: int) -> int:
        """Index of the shared leaf group (switch/island) of *node*."""

    @abstractmethod
    def uplink_capacity_fraction(self) -> float:
        """Fraction of aggregate leaf bandwidth available on the up-link.

        A blocking factor ``b:1`` or pruning factor ``1:b`` yields
        ``1/b``: traffic leaving a leaf group shares a link provisioned at
        that fraction of the group's injection bandwidth.
        """

    def _check_node(self, node: int) -> int:
        node = as_int(node, name="node")
        if not 0 <= node < self._num_nodes:
            raise ReproError(f"node must be in [0, {self._num_nodes}), got {node}")
        return node

    def to_networkx(self):
        """Export switches and nodes as a :class:`networkx.Graph`.

        This is the core-and-leaf star of the tree-shaped fabrics; the
        islands, the torus and the dragonfly export their own links.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_node("core", kind="switch")
        leaves = {self.leaf_of(i) for i in range(self._num_nodes)}
        for leaf in leaves:
            g.add_node(f"leaf{leaf}", kind="switch")
            g.add_edge("core", f"leaf{leaf}", capacity=self.uplink_capacity_fraction())
        for i in range(self._num_nodes):
            g.add_node(f"node{i}", kind="node")
            g.add_edge(f"node{i}", f"leaf{self.leaf_of(i)}", capacity=1.0)
        return g


class SingleSwitchTopology(Topology):
    """All nodes on one non-blocking switch (small allocations)."""

    def hop_distance(self, a: int, b: int) -> int:
        a, b = self._check_node(a), self._check_node(b)
        return 0 if a == b else 1

    def leaf_of(self, node: int) -> int:
        self._check_node(node)
        return 0

    def uplink_capacity_fraction(self) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"SingleSwitchTopology(num_nodes={self._num_nodes})"


class FatTreeTopology(Topology):
    """Two-level fat tree with a blocking factor (VSC4, JUWELS).

    Parameters
    ----------
    num_nodes:
        Nodes attached to the tree.
    nodes_per_switch:
        Nodes per leaf switch; nodes fill switches contiguously.
    blocking_factor:
        ``b`` in a ``b:1`` blocked tree: the leaf up-link carries
        ``1/b`` of the leaf's aggregate injection bandwidth.
    """

    def __init__(self, num_nodes: int, nodes_per_switch: int = 32, blocking_factor: float = 1.0):
        super().__init__(num_nodes)
        nodes_per_switch = as_int(nodes_per_switch, name="nodes_per_switch")
        if nodes_per_switch <= 0:
            raise ReproError(
                f"nodes_per_switch must be positive, got {nodes_per_switch}"
            )
        blocking_factor = as_real(blocking_factor, name="blocking_factor")
        if not blocking_factor >= 1.0:  # NaN fails too
            raise ReproError(
                f"blocking_factor must be >= 1, got {blocking_factor}"
            )
        self._nodes_per_switch = nodes_per_switch
        self._blocking = blocking_factor

    @property
    def nodes_per_switch(self) -> int:
        """Nodes attached to one leaf switch."""
        return self._nodes_per_switch

    @property
    def blocking_factor(self) -> float:
        """The ``b`` of the ``b:1`` blocking ratio."""
        return self._blocking

    def hop_distance(self, a: int, b: int) -> int:
        a, b = self._check_node(a), self._check_node(b)
        if a == b:
            return 0
        return 1 if self.leaf_of(a) == self.leaf_of(b) else 3

    def leaf_of(self, node: int) -> int:
        return self._check_node(node) // self._nodes_per_switch

    def uplink_capacity_fraction(self) -> float:
        return 1.0 / self._blocking

    def __repr__(self) -> str:
        return (
            f"FatTreeTopology(num_nodes={self._num_nodes}, "
            f"nodes_per_switch={self._nodes_per_switch}, "
            f"blocking_factor={self._blocking})"
        )


class IslandTopology(Topology):
    """Islands of fat-tree-connected nodes with pruned island links.

    SuperMUC-NG bundles nodes into islands; within an island the fat tree
    is non-blocking, but inter-island links are pruned 1:4.

    Parameters
    ----------
    num_nodes:
        Nodes in the allocation.
    nodes_per_island:
        Nodes per island; nodes fill islands contiguously.
    pruning_factor:
        ``b`` in a ``1:b`` pruned inter-island connection.
    """

    def __init__(self, num_nodes: int, nodes_per_island: int = 792, pruning_factor: float = 4.0):
        super().__init__(num_nodes)
        nodes_per_island = as_int(nodes_per_island, name="nodes_per_island")
        if nodes_per_island <= 0:
            raise ReproError(
                f"nodes_per_island must be positive, got {nodes_per_island}"
            )
        pruning_factor = as_real(pruning_factor, name="pruning_factor")
        if not pruning_factor >= 1.0:  # NaN fails too
            raise ReproError(f"pruning_factor must be >= 1, got {pruning_factor}")
        self._nodes_per_island = nodes_per_island
        self._pruning = pruning_factor

    @property
    def nodes_per_island(self) -> int:
        """Nodes bundled into one island."""
        return self._nodes_per_island

    @property
    def pruning_factor(self) -> float:
        """The ``b`` of the ``1:b`` pruning ratio."""
        return self._pruning

    def hop_distance(self, a: int, b: int) -> int:
        a, b = self._check_node(a), self._check_node(b)
        if a == b:
            return 0
        return 3 if self.leaf_of(a) == self.leaf_of(b) else 5

    def leaf_of(self, node: int) -> int:
        return self._check_node(node) // self._nodes_per_island

    def to_networkx(self):
        """Export the islands' fat trees below one core switch.

        ``node{i}`` hangs off its own ``edge{i}`` switch, every edge
        switch of island *k* links to ``island{k}``, and every island
        switch to ``core`` through its pruned link.  A shortest path
        between two nodes passes through :meth:`hop_distance` switches:
        3 within an island, 5 across islands.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_node("core", kind="switch")
        fraction = self.uplink_capacity_fraction()
        for k in range(self.leaf_of(self._num_nodes - 1) + 1):
            g.add_node(f"island{k}", kind="switch")
            g.add_edge("core", f"island{k}", capacity=fraction)
        for i in range(self._num_nodes):
            g.add_node(f"edge{i}", kind="switch")
            g.add_node(f"node{i}", kind="node")
            g.add_edge(f"node{i}", f"edge{i}", capacity=1.0)
            g.add_edge(f"edge{i}", f"island{self.leaf_of(i)}", capacity=1.0)
        return g

    def uplink_capacity_fraction(self) -> float:
        return 1.0 / self._pruning

    def __repr__(self) -> str:
        return (
            f"IslandTopology(num_nodes={self._num_nodes}, "
            f"nodes_per_island={self._nodes_per_island}, "
            f"pruning_factor={self._pruning})"
        )


class Torus3DTopology(Topology):
    """A 3-D torus (or mesh) of directly-connected nodes.

    "Mapping Matters" studies process mapping on 3-D processor
    topologies where message cost grows with the Manhattan link
    distance; this models exactly that machine.  Nodes fill the
    ``x`` x ``y`` x ``z`` box in row-major order (``z`` fastest), and
    the hop distance is the per-axis shortest-path sum — with
    wraparound links when ``periodic``.

    Parameters
    ----------
    dims:
        The three axis extents; ``num_nodes`` is their product.
    periodic:
        Whether each axis closes into a ring (torus) or not (mesh).
    """

    def __init__(self, dims: tuple[int, int, int], periodic: bool = True):
        try:
            extents = tuple(as_int(d, name="dims") for d in dims)
        except TypeError:
            raise ReproError(f"dims must be three axis extents, got {dims!r}") from None
        if len(extents) != 3:
            raise ReproError(f"a 3-D torus needs exactly 3 extents, got {len(extents)}")
        if any(d <= 0 for d in extents):
            raise ReproError(f"every torus extent must be positive, got {extents}")
        super().__init__(extents[0] * extents[1] * extents[2])
        self._dims = extents
        self._periodic = bool(periodic)

    @property
    def dims(self) -> tuple[int, int, int]:
        """The three axis extents."""
        return self._dims

    @property
    def periodic(self) -> bool:
        """``True`` for a torus, ``False`` for an open mesh."""
        return self._periodic

    def coordinates(self, node: int) -> tuple[int, int, int]:
        """The ``(x, y, z)`` coordinates of *node* (row-major order)."""
        node = self._check_node(node)
        _, ny, nz = self._dims
        return (node // (ny * nz), (node // nz) % ny, node % nz)

    def hop_distance(self, a: int, b: int) -> int:
        ca, cb = self.coordinates(a), self.coordinates(b)
        total = 0
        for pa, pb, extent in zip(ca, cb, self._dims):
            delta = abs(pa - pb)
            if self._periodic:
                delta = min(delta, extent - delta)
            total += delta
        return total

    def leaf_of(self, node: int) -> int:
        # Every node owns its router: no shared leaf group.
        return self._check_node(node)

    def to_networkx(self):
        """Export the router grid, each node on its own router.

        ``router{i}`` links to the next router along each axis, and the
        last one to the first when ``periodic`` (an axis of extent 1 has
        no link); ``node{i}`` hangs off ``router{i}``.  The path length
        between two routers is the :meth:`hop_distance` of their nodes.
        """
        import networkx as nx

        g = nx.Graph()
        for i in range(self._num_nodes):
            g.add_node(f"router{i}", kind="switch")
            g.add_node(f"node{i}", kind="node")
            g.add_edge(f"node{i}", f"router{i}", capacity=1.0)
        _, ny, nz = self._dims
        strides = (ny * nz, nz, 1)
        for i in range(self._num_nodes):
            for pos, extent, stride in zip(self.coordinates(i), self._dims, strides):
                if pos + 1 < extent:
                    g.add_edge(f"router{i}", f"router{i + stride}", capacity=1.0)
                elif self._periodic and extent > 1:
                    g.add_edge(f"router{i}", f"router{i - pos * stride}", capacity=1.0)
        return g

    def uplink_capacity_fraction(self) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"Torus3DTopology(dims={self._dims}, periodic={self._periodic})"


class DragonflyTopology(Topology):
    """A dragonfly: router groups joined by all-to-all global links.

    Nodes fill routers contiguously and routers fill groups
    contiguously.  Minimal routing costs 1 hop within a router, 2
    within a group (router - router) and 3 across groups (router -
    global link - router); the pruned global links model contention
    like a fat tree's blocking factor.

    Parameters
    ----------
    num_groups:
        Number of router groups.
    routers_per_group:
        Routers (leaf switches) in each group.
    nodes_per_router:
        Compute nodes attached to each router.
    global_link_ratio:
        ``b`` in a ``b:1`` tapering of a group's global links: traffic
        leaving a group shares links provisioned at ``1/b`` of the
        group's aggregate injection bandwidth.
    """

    def __init__(
        self,
        num_groups: int,
        routers_per_group: int = 4,
        nodes_per_router: int = 4,
        global_link_ratio: float = 1.0,
    ):
        num_groups = as_int(num_groups, name="num_groups")
        routers_per_group = as_int(routers_per_group, name="routers_per_group")
        nodes_per_router = as_int(nodes_per_router, name="nodes_per_router")
        if num_groups <= 0 or routers_per_group <= 0 or nodes_per_router <= 0:
            raise ReproError(
                "num_groups, routers_per_group and nodes_per_router must all "
                f"be positive, got ({num_groups}, {routers_per_group}, "
                f"{nodes_per_router})"
            )
        global_link_ratio = as_real(global_link_ratio, name="global_link_ratio")
        if not global_link_ratio >= 1.0:  # NaN fails too
            raise ReproError(
                f"global_link_ratio must be >= 1, got {global_link_ratio}"
            )
        super().__init__(num_groups * routers_per_group * nodes_per_router)
        self._num_groups = num_groups
        self._routers_per_group = routers_per_group
        self._nodes_per_router = nodes_per_router
        self._global_ratio = global_link_ratio

    @property
    def num_groups(self) -> int:
        """Number of router groups."""
        return self._num_groups

    @property
    def routers_per_group(self) -> int:
        """Routers in one group."""
        return self._routers_per_group

    @property
    def nodes_per_router(self) -> int:
        """Nodes attached to one router."""
        return self._nodes_per_router

    @property
    def global_link_ratio(self) -> float:
        """The ``b`` of the ``b:1`` global-link tapering."""
        return self._global_ratio

    def router_of(self, node: int) -> int:
        """Global router index of *node*."""
        return self._check_node(node) // self._nodes_per_router

    def group_of(self, node: int) -> int:
        """Group index of *node*."""
        return self.router_of(node) // self._routers_per_group

    def hop_distance(self, a: int, b: int) -> int:
        a, b = self._check_node(a), self._check_node(b)
        if a == b:
            return 0
        if self.router_of(a) == self.router_of(b):
            return 1
        return 2 if self.group_of(a) == self.group_of(b) else 3

    def leaf_of(self, node: int) -> int:
        return self.router_of(node)

    def to_networkx(self):
        """Export routers, global links and nodes.

        Each group's routers form a clique, and one ``global{g}-{h}``
        vertex per pair of groups is adjacent to every router of both;
        ``node{i}`` hangs off its router.  A shortest path between two
        nodes passes through :meth:`hop_distance` routers and links.
        """
        import networkx as nx

        g = nx.Graph()
        per_group = self._routers_per_group
        groups = [
            [f"router{r}" for r in range(k * per_group, (k + 1) * per_group)]
            for k in range(self._num_groups)
        ]
        for routers in groups:
            g.add_nodes_from(routers, kind="switch")
            for a, router in enumerate(routers):
                for other in routers[a + 1 :]:
                    g.add_edge(router, other, capacity=1.0)
        fraction = self.uplink_capacity_fraction()
        for k in range(self._num_groups):
            for h in range(k + 1, self._num_groups):
                link = f"global{k}-{h}"
                g.add_node(link, kind="link")
                for router in groups[k] + groups[h]:
                    g.add_edge(link, router, capacity=fraction)
        for i in range(self._num_nodes):
            g.add_node(f"node{i}", kind="node")
            g.add_edge(f"node{i}", f"router{self.router_of(i)}", capacity=1.0)
        return g

    def uplink_capacity_fraction(self) -> float:
        return 1.0 / self._global_ratio

    def __repr__(self) -> str:
        return (
            f"DragonflyTopology(num_groups={self._num_groups}, "
            f"routers_per_group={self._routers_per_group}, "
            f"nodes_per_router={self._nodes_per_router}, "
            f"global_link_ratio={self._global_ratio})"
        )


def topology_from_spec(kind: str, params: tuple) -> Topology:
    """Build a topology from a stable ``(kind, params)`` description.

    The inverse of the encoding :func:`repro.engine.topology_cut_metric`
    stores in its :class:`~repro.engine.MetricSpec` params, so workers
    can reconstruct the machine model from the wire format alone.
    """
    params = tuple(params)
    if kind == "single_switch":
        return SingleSwitchTopology(*params)
    if kind == "fat_tree":
        return FatTreeTopology(*params)
    if kind == "island":
        return IslandTopology(*params)
    if kind == "torus3d":
        if not params:
            raise ReproError("torus3d spec needs (dims, periodic)")
        dims = tuple(params[0]) if len(params) else ()
        rest = params[1:]
        return Torus3DTopology(dims, *rest)
    if kind == "dragonfly":
        return DragonflyTopology(*params)
    raise ReproError(
        f"unknown topology kind {kind!r}; expected one of single_switch, "
        "fat_tree, island, torus3d, dragonfly"
    )
