"""Pluggable batch-level metric sets for the evaluation engine.

``Jsum``/``Jmax`` (the :class:`~repro.metrics.cost.MappingCost`) are
computed for every request; everything else is an opt-in *metric*.  A
request names the extra quantities it wants via ``metrics=`` — a tuple
of :class:`MetricSpec`\\ s (or plain registry names) — and the engine
computes each one **batch-level**: all distinct permutations of an
instance group that want a metric are stacked and handed to the metric
implementation in one call, exactly like the built-in cost kernel.
Results come back as a ``{column: value}`` mapping per permutation and
are carried on :attr:`~repro.engine.MappingResult.metrics`.

Metric implementations are looked up by name in a process-global
registry, so specs pickle cheaply across the process/service backends
(only the name and the parameter tuple travel; workers resolve the
implementation locally).  Custom metrics therefore must be registered
at import time of a module available to the workers.

Built-in metrics
----------------
``weighted_cut_bytes``
    The volume-weighted cut of Section VI-B extensions:
    ``weighted_cut_bytes`` (total inter-node bytes) and
    ``weighted_bottleneck_bytes`` (heaviest node) columns, computed by
    :func:`repro.metrics.cost.weighted_cut_bytes_batch` and bit-identical
    to the serial :func:`repro.metrics.cost.weighted_cut_bytes`.  Build
    the spec with :func:`weighted_bytes_metric`.
``topology_hop_cut``
    The hop/contention-weighted cut of "Mapping Matters"-style machine
    models: ``hop_cut`` (total hop-weighted inter-node traffic) and
    ``hop_max`` (heaviest node) columns, charging each inter-node edge
    the topology's hop distance (optionally scaled by shared up-link
    contention).  Build the spec with :func:`topology_cut_metric`; works
    for every workload family (it only needs the communication edges).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from ..exceptions import MappingError
from ..hardware.topology import Topology, topology_from_spec
from ..kernels import (
    hop_weighted_cut_batch,
    node_of_vertex_batch,
    weighted_cut_bytes_batch,
)

__all__ = [
    "MetricSpec",
    "MetricContext",
    "as_metric_spec",
    "register_metric",
    "list_metrics",
    "resolve_metric",
    "weighted_bytes_metric",
    "topology_cut_metric",
]


@dataclass(frozen=True)
class MetricSpec:
    """One metric request: a registry name plus hashable parameters.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs are
    hashable (they key the engine's metric cache) and picklable (they
    cross the process/service backend boundary by value).
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one parameter value by key."""
        for k, v in self.params:
            if k == key:
                return v
        return default

    def __repr__(self) -> str:
        if not self.params:
            return f"MetricSpec({self.name!r})"
        keys = ", ".join(k for k, _ in self.params)
        return f"MetricSpec({self.name!r}, params=<{keys}>)"


def as_metric_spec(spec: str | MetricSpec) -> MetricSpec:
    """Normalise a metric spec: a bare name means no parameters."""
    if isinstance(spec, MetricSpec):
        return spec
    if isinstance(spec, str):
        return MetricSpec(spec)
    raise TypeError(
        f"metric spec must be a name or MetricSpec, got {type(spec).__name__}"
    )


class MetricContext:
    """Instance-group context handed to metric implementations.

    Exposes the group's instance (grid, stencil, allocation), the
    engine's cached plain edge array, and a memoized per-offset edge
    enumeration for metrics that weight edges by generating offset.
    For workload requests, ``workload`` carries the workload and
    ``grid``/``stencil`` may be ``None`` (irregular graphs have no
    Cartesian structure).
    """

    def __init__(self, engine, grid, stencil, alloc, edges: np.ndarray, workload=None):
        self.engine = engine
        self.grid = grid
        self.stencil = stencil
        self.alloc = alloc
        self.edges = edges
        self.workload = workload

    def edges_by_offset(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(edges, offset_index)`` of the instance's stencil."""
        if self.grid is None or self.stencil is None:
            name = getattr(self.workload, "name", None)
            raise MappingError(
                "this metric weights edges by stencil offset, but workload "
                f"{name!r} has no Cartesian grid/stencil structure; use a "
                "workload-agnostic metric such as topology_cut_metric(...)"
            )
        return self.engine.edges_by_offset(self.grid, self.stencil)


#: fn(ctx, perms (b, p), spec) -> one ``{column: value}`` dict per row.
MetricFn = Callable[[MetricContext, np.ndarray, MetricSpec], list[dict[str, float]]]

_REGISTRY: dict[str, MetricFn] = {}


def register_metric(name: str, fn: MetricFn, *, replace: bool = False) -> None:
    """Register a batch-level metric implementation under *name*.

    The function receives a :class:`MetricContext`, the stacked ``(b,
    p)`` permutation array and the requesting :class:`MetricSpec`, and
    must return one ``{column: value}`` dict per permutation row.
    Registration is process-local: metrics used through the process or
    service backends must be registered on the worker side too (built-in
    metrics always are).
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"metric {name!r} is already registered")
    _REGISTRY[name] = fn


def list_metrics() -> tuple[str, ...]:
    """Registered metric names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_metric(name: str) -> MetricFn:
    """The implementation registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# Built-in: volume-weighted cut bytes
# ----------------------------------------------------------------------
def weighted_bytes_metric(offset_bytes: Mapping[tuple, float]) -> MetricSpec:
    """A ``weighted_cut_bytes`` spec for the given per-offset volumes.

    *offset_bytes* maps stencil offsets to payload bytes (e.g. from
    :func:`repro.workloads.halo_exchange_volume`); it is frozen into the
    spec's parameter tuple so equal volume tables share cache entries.
    """
    volumes = tuple(
        sorted((tuple(off), float(b)) for off, b in offset_bytes.items())
    )
    return MetricSpec("weighted_cut_bytes", params=(("volumes", volumes),))


def _weighted_cut_bytes(
    ctx: MetricContext, perms: np.ndarray, spec: MetricSpec
) -> list[dict[str, float]]:
    volumes = spec.param("volumes")
    if volumes is None:
        raise MappingError(
            "weighted_cut_bytes needs a 'volumes' parameter; build the "
            "spec with repro.engine.metrics.weighted_bytes_metric(...)"
        )
    edges, offset_index = ctx.edges_by_offset()
    pairs = weighted_cut_bytes_batch(
        ctx.grid,
        ctx.stencil,
        perms,
        ctx.alloc,
        dict(volumes),
        edges=edges,
        offset_index=offset_index,
    )
    return [
        {"weighted_cut_bytes": cut, "weighted_bottleneck_bytes": bottleneck}
        for cut, bottleneck in pairs
    ]


register_metric("weighted_cut_bytes", _weighted_cut_bytes)


# ----------------------------------------------------------------------
# Built-in: topology hop/contention-weighted cut
# ----------------------------------------------------------------------
def _topology_spec_tuple(topology: Topology) -> tuple[str, tuple]:
    """The stable ``(kind, params)`` encoding of *topology*.

    Inverse of :func:`repro.hardware.topology.topology_from_spec`; the
    tuple is what travels inside the :class:`MetricSpec` params, so
    workers on any backend rebuild the identical machine model.
    """
    # Imported lazily by name to keep this module's import graph light.
    from ..hardware.topology import (
        DragonflyTopology,
        FatTreeTopology,
        IslandTopology,
        SingleSwitchTopology,
        Torus3DTopology,
    )

    if isinstance(topology, Torus3DTopology):
        return ("torus3d", (tuple(topology.dims), topology.periodic))
    if isinstance(topology, DragonflyTopology):
        return (
            "dragonfly",
            (
                topology.num_groups,
                topology.routers_per_group,
                topology.nodes_per_router,
                topology.global_link_ratio,
            ),
        )
    if isinstance(topology, FatTreeTopology):
        return (
            "fat_tree",
            (
                topology.num_nodes,
                topology.nodes_per_switch,
                topology.blocking_factor,
            ),
        )
    if isinstance(topology, IslandTopology):
        return (
            "island",
            (
                topology.num_nodes,
                topology.nodes_per_island,
                topology.pruning_factor,
            ),
        )
    if isinstance(topology, SingleSwitchTopology):
        return ("single_switch", (topology.num_nodes,))
    raise TypeError(
        f"cannot encode topology {type(topology).__name__}; "
        "topology_cut_metric supports the built-in topology classes"
    )


def topology_cut_metric(topology: Topology, *, contention: bool = False) -> MetricSpec:
    """A ``topology_hop_cut`` spec scoring mappings against *topology*.

    Each inter-node edge is charged the topology's hop distance between
    its endpoint nodes; with ``contention`` the charge is additionally
    divided by the up-link capacity fraction whenever the endpoints sit
    in different leaf groups (a ``4:1``-blocked link makes cross-group
    hops four times as expensive).  The resulting columns are
    ``hop_cut`` (total, the natural search objective) and ``hop_max``
    (bottleneck node).  The topology must cover at least the
    allocation's node count; extra modelled nodes are simply unused.
    """
    kind, params = _topology_spec_tuple(topology)
    return MetricSpec(
        "topology_hop_cut",
        params=(
            ("contention", bool(contention)),
            ("params", tuple(params)),
            ("topology", kind),
        ),
    )


@lru_cache(maxsize=32)
def _node_weight_matrix(
    kind: str, params: tuple, contention: bool
) -> np.ndarray:
    """The dense ``(N, N)`` float64 cost matrix of one topology spec."""
    topology = topology_from_spec(kind, params)
    n = topology.num_nodes
    fraction = topology.uplink_capacity_fraction()
    weights = np.empty((n, n), dtype=np.float64)
    for a in range(n):
        leaf_a = topology.leaf_of(a)
        for b in range(n):
            cost = float(topology.hop_distance(a, b))
            if contention and leaf_a != topology.leaf_of(b):
                cost /= fraction
            weights[a, b] = cost
    weights.setflags(write=False)
    return weights


def _topology_hop_cut(
    ctx: MetricContext, perms: np.ndarray, spec: MetricSpec
) -> list[dict[str, float]]:
    kind = spec.param("topology")
    params = spec.param("params")
    if kind is None or params is None:
        raise MappingError(
            "topology_hop_cut needs 'topology'/'params' parameters; build "
            "the spec with repro.engine.metrics.topology_cut_metric(...)"
        )
    weights = _node_weight_matrix(str(kind), tuple(params), bool(spec.param("contention", False)))
    num_nodes = ctx.alloc.num_nodes
    if weights.shape[0] < num_nodes:
        raise MappingError(
            f"topology {kind!r} models {weights.shape[0]} node(s) but the "
            f"allocation uses {num_nodes}; size the topology to cover the "
            "allocation"
        )
    nodes = node_of_vertex_batch(perms, ctx.alloc)
    per_node = hop_weighted_cut_batch(
        ctx.edges, nodes, weights[:num_nodes, :num_nodes]
    )
    return [
        {"hop_cut": float(row.sum()), "hop_max": float(row.max())}
        for row in per_node
    ]


register_metric("topology_hop_cut", _topology_hop_cut)
