"""Declarative mapping sweeps: ``SweepSpec`` -> engine batch -> ``ResultSet``.

Every experiment of the paper is one shape — *instances x stencils x
mappers* evaluated on a machine model, with some metric columns per cell
— yet each driver used to hand-roll its own loop.  This module is the
shared seam: declare the cross-product once, compile it to
:class:`~repro.engine.MappingRequest` batches, execute on any
:class:`~repro.engine.Backend` (serial, process or service),
and get a columnar :class:`ResultSet` back with deterministic ordering
and partial-failure cells carried as errors instead of crashes.

>>> import repro
>>> spec = repro.SweepSpec(
...     instances=[repro.InstanceSpec.from_nodes(n, 8) for n in (4, 8)],
...     stencils=["nearest_neighbor"],
...     mappers=["blocked", "hyperplane", "stencil_strips"],
... )
>>> results = repro.run(spec, backend="process:2")      # doctest: +SKIP
>>> results.pivot(values="jmax")                        # doctest: +SKIP
{'N4_n8_2d': {'blocked': 24, 'hyperplane': 16, ...}, ...}

Extra quantities plug in through the engine's metric registry
(:mod:`repro.engine.metrics`); ``metrics=[weighted_bytes_metric(vol)]``
runs the volume-weighted cut batch-level through the same cached
pipeline on every backend.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import Mapper
from .engine import Backend, MappingRequest, MappingResult, resolve_backend
from .engine.metrics import MetricSpec, as_metric_spec
from .exceptions import ReproError
from .grid.dims import dims_create
from .grid.grid import CartesianGrid
from .grid.stencil import (
    Stencil,
    component,
    nearest_neighbor,
    nearest_neighbor_with_hops,
)
from .hardware.allocation import NodeAllocation
from .workloads.base import WorkloadBase

__all__ = [
    "STENCIL_FAMILIES",
    "DEFAULT_MAPPER_NAMES",
    "WORKLOAD_AXIS",
    "InstanceSpec",
    "CellOverride",
    "SweepCell",
    "SweepSpec",
    "SweepRow",
    "ResultSet",
    "run",
    "run_stream",
]

#: Stencil factories keyed by the paper's names, applied to the grid
#: dimensionality of each instance.
STENCIL_FAMILIES: dict[str, Callable[[int], Stencil]] = {
    "nearest_neighbor": nearest_neighbor,
    "nearest_neighbor_with_hops": nearest_neighbor_with_hops,
    "component": component,
}

#: Registry names of the seven evaluated mappings, in paper order.
#: ``graphmap`` plays the role of VieM; ``blocked`` is the paper's
#: "Standard".
DEFAULT_MAPPER_NAMES: tuple[str, ...] = (
    "blocked",
    "hyperplane",
    "kd_tree",
    "stencil_strips",
    "nodecart",
    "graphmap",
    "random",
)

#: Stencil-axis sentinel for workload instances: the cell evaluates the
#: instance's own workload instead of crossing it with a stencil family.
WORKLOAD_AXIS = "workload"


# ----------------------------------------------------------------------
# Axes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstanceSpec:
    """One evaluation instance of a sweep: a grid plus its allocation.

    ``params`` is a tuple of ``(key, value)`` pairs surfaced on every
    result row (e.g. ``num_nodes``) so post-processing can group and
    pivot without re-parsing labels.

    A *workload instance* (built with :meth:`from_workload`) carries a
    first-class :class:`~repro.workloads.WorkloadBase` instead of being
    crossed with the stencil axis; pair it with the
    :data:`WORKLOAD_AXIS` stencil-axis sentinel.  Its ``grid`` is the
    workload's own grid, or ``None`` for irregular general graphs.
    """

    grid: CartesianGrid | None
    alloc: NodeAllocation
    label: str
    params: tuple[tuple[str, Any], ...] = ()
    workload: WorkloadBase | None = None

    @classmethod
    def from_nodes(
        cls,
        num_nodes: int,
        processes_per_node: int = 48,
        ndims: int = 2,
        *,
        label: str | None = None,
    ) -> "InstanceSpec":
        """The paper's canonical instance shape: ``dims_create`` grid of
        ``N x n`` processes on a homogeneous allocation."""
        num_nodes = int(num_nodes)
        processes_per_node = int(processes_per_node)
        grid = CartesianGrid(
            dims_create(num_nodes * processes_per_node, int(ndims))
        )
        alloc = NodeAllocation.homogeneous(num_nodes, processes_per_node)
        return cls(
            grid=grid,
            alloc=alloc,
            label=label or f"N{num_nodes}_n{processes_per_node}_{int(ndims)}d",
            params=(
                ("num_nodes", num_nodes),
                ("processes_per_node", processes_per_node),
                ("ndims", int(ndims)),
            ),
        )

    @classmethod
    def from_workload(
        cls,
        workload: WorkloadBase,
        alloc: NodeAllocation,
        *,
        label: str | None = None,
        params: tuple[tuple[str, Any], ...] = (),
    ) -> "InstanceSpec":
        """A workload instance: any workload family plus its allocation.

        The instance's cells evaluate the workload's own communication
        graph; pair it with the :data:`WORKLOAD_AXIS` stencil-axis
        sentinel (mixing it with a Cartesian stencil family produces an
        actionable error cell instead).
        """
        if not isinstance(workload, WorkloadBase):
            raise TypeError(
                f"from_workload needs a WorkloadBase, got "
                f"{type(workload).__name__} (coerce generator output with "
                "repro.workloads.as_workload)"
            )
        base = (
            ("num_nodes", alloc.num_nodes),
            ("workload", workload.name),
        )
        keys = {key for key, _ in params}
        merged = tuple(params) + tuple(
            (key, value) for key, value in base if key not in keys
        )
        return cls(
            grid=workload.grid,
            alloc=alloc,
            label=label or workload.name,
            params=merged,
            workload=workload,
        )

    @classmethod
    def coerce(cls, value) -> "InstanceSpec":
        """Accept the shapes drivers naturally hold.

        * an :class:`InstanceSpec` (returned unchanged),
        * an :class:`~repro.experiments.instances.Instance`-like object
          (``grid``/``allocation`` attributes plus a ``label()``),
        * a ``(grid, alloc)`` or ``(workload, alloc)`` pair,
        * an ``int`` node count (48 processes per node, 2-d).
        """
        if isinstance(value, cls):
            return value
        if hasattr(value, "grid") and hasattr(value, "allocation"):
            params = []
            for key in ("num_nodes", "processes_per_node", "ndims"):
                if hasattr(value, key):
                    params.append((key, int(getattr(value, key))))
            label = value.label() if callable(getattr(value, "label", None)) else None
            return cls(
                grid=value.grid,
                alloc=value.allocation,
                label=label or f"p{value.grid.size}",
                params=tuple(params),
            )
        if isinstance(value, int):
            return cls.from_nodes(value)
        if isinstance(value, tuple) and len(value) == 2:
            grid, alloc = value
            if isinstance(grid, WorkloadBase):
                return cls.from_workload(grid, alloc)
            return cls(
                grid=grid,
                alloc=alloc,
                label=f"grid{'x'.join(map(str, grid.dims))}",
                params=(("num_nodes", alloc.num_nodes),),
            )
        raise TypeError(
            f"cannot interpret {value!r} as a sweep instance; pass an "
            f"InstanceSpec, an Instance, a (grid, alloc) pair or a node count"
        )


def _stencil_axis(value) -> tuple[str, Callable[[int], Stencil] | Stencil | None]:
    """Normalise one stencil-axis entry to ``(name, factory-or-stencil)``.

    ``None`` or the string ``"workload"`` is the :data:`WORKLOAD_AXIS`
    sentinel (value ``None``): cells on this entry evaluate the
    instance's own workload instead of a grid x stencil product.
    """
    if value is None or value == WORKLOAD_AXIS:
        return WORKLOAD_AXIS, None
    if isinstance(value, str):
        try:
            return value, STENCIL_FAMILIES[value]
        except KeyError:
            raise KeyError(
                f"unknown stencil family {value!r}; "
                f"available: {sorted(STENCIL_FAMILIES)}"
            ) from None
    if isinstance(value, Stencil):
        return f"stencil{len(value.offsets)}", value
    if isinstance(value, tuple) and len(value) == 2:
        name, stencil = value
        return str(name), stencil
    raise TypeError(
        f"cannot interpret {value!r} as a stencil axis entry; pass a family "
        f"name, a Stencil, or a (name, stencil_or_factory) pair"
    )


def _mapper_axis(value) -> tuple[str, str | Mapper]:
    """Normalise one mapper-axis entry to ``(name, registry-name-or-instance)``."""
    if isinstance(value, str):
        return value, value
    if isinstance(value, Mapper):
        return value.name, value
    if isinstance(value, tuple) and len(value) == 2:
        name, mapper = value
        return str(name), mapper
    raise TypeError(
        f"cannot interpret {value!r} as a mapper axis entry; pass a registry "
        f"name, a Mapper instance, or a (name, mapper) pair"
    )


@dataclass(frozen=True)
class CellOverride:
    """Per-cell override matched by (instance, stencil, mapper) labels.

    ``None`` patterns match everything, so one override can blanket a
    whole axis slice — e.g. give every ``graphmap`` cell an extra tag,
    or skip a mapper on one instance.  ``metrics`` *replaces* the cell's
    metric tuple; ``tags`` merge over the spec-level tags.
    """

    instance: str | None = None
    stencil: str | None = None
    mapper: str | None = None
    metrics: tuple | None = None
    tags: Mapping[str, Any] | None = None
    skip: bool = False

    def matches(self, instance: str, stencil: str, mapper: str) -> bool:
        """``True`` when every non-``None`` pattern equals its label."""
        return (
            (self.instance is None or self.instance == instance)
            and (self.stencil is None or self.stencil == stencil)
            and (self.mapper is None or self.mapper == mapper)
        )


@dataclass(frozen=True, eq=False)
class SweepCell:
    """One compiled cell of a sweep's cross-product.

    ``request`` is ``None`` when the cell failed to compile (mismatched
    allocation, stencil/grid dimensionality clash, ...); ``error`` then
    explains why and the cell surfaces as a failed :class:`SweepRow`
    instead of aborting the sweep.
    """

    index: int
    instance: InstanceSpec
    stencil: str
    mapper: str
    mapper_spec: str | Mapper = field(repr=False)
    metrics: tuple[MetricSpec, ...] = ()
    tags: dict = field(default_factory=dict)
    request: MappingRequest | None = field(repr=False, default=None)
    error: str | None = None

    @classmethod
    def _of(
        cls, index, instance, stencil, mapper, mapper_spec, metrics, tags,
        request, error,
    ) -> "SweepCell":
        """A cell set up in one step instead of the frozen dataclass
        ``__init__``'s ``object.__setattr__`` per field (compilation
        builds one cell per mapper of every instance group)."""
        cell = object.__new__(cls)
        object.__setattr__(cell, "__dict__", {
            "index": index,
            "instance": instance,
            "stencil": stencil,
            "mapper": mapper,
            "mapper_spec": mapper_spec,
            "metrics": metrics,
            "tags": tags,
            "request": request,
            "error": error,
        })
        return cell


class SweepSpec:
    """A declarative sweep: instances x allocations x stencils x mappers.

    Parameters
    ----------
    instances:
        Anything :meth:`InstanceSpec.coerce` accepts — prebuilt specs,
        :class:`~repro.experiments.instances.Instance` objects,
        ``(grid, alloc)`` pairs, or bare node counts.
    stencils:
        Stencil-axis entries: family names from :data:`STENCIL_FAMILIES`
        (resolved against each instance's dimensionality), concrete
        :class:`~repro.grid.stencil.Stencil` objects, ``(name,
        stencil_or_factory)`` pairs, or the :data:`WORKLOAD_AXIS`
        sentinel (``"workload"``/``None``) under which each workload
        instance evaluates its own communication graph.
    mappers:
        Mapper-axis entries: registry names, configured
        :class:`~repro.core.Mapper` instances, ``(name, mapper)`` pairs,
        or a ``{name: mapper}`` mapping.  Defaults to the paper's seven
        algorithms.
    allocations:
        Optional extra axis of ``(label, NodeAllocation)`` pairs (or
        bare allocations) crossed with every instance; an allocation
        whose process count mismatches an instance's grid becomes an
        error cell, not a crash.  Without it each instance uses its own
        allocation.
    metrics:
        Extra engine metrics for every cell (names or
        :class:`~repro.engine.MetricSpec`); see
        :mod:`repro.engine.metrics`.
    tags:
        Constant key/value payload stamped on every result row.
    overrides:
        :class:`CellOverride` entries, applied in order to matching
        cells.

    The spec is immutable after construction; :meth:`cells` compiles the
    cross-product exactly once (deterministic cell order: instance-major,
    then allocation, stencil, mapper) and :func:`run` turns it into a
    :class:`ResultSet`.
    """

    def __init__(
        self,
        instances: Iterable,
        stencils: Iterable = ("nearest_neighbor",),
        mappers: Iterable | Mapping[str, str | Mapper] = DEFAULT_MAPPER_NAMES,
        *,
        allocations: Iterable | None = None,
        metrics: Iterable = (),
        tags: Mapping[str, Any] | None = None,
        overrides: Iterable[CellOverride] = (),
    ):
        self.instances: tuple[InstanceSpec, ...] = tuple(
            InstanceSpec.coerce(i) for i in instances
        )
        self.stencils = tuple(_stencil_axis(s) for s in stencils)
        if isinstance(mappers, Mapping):
            self.mappers = tuple(
                (str(name), mapper) for name, mapper in mappers.items()
            )
        else:
            self.mappers = tuple(_mapper_axis(m) for m in mappers)
        if allocations is None:
            self.allocations: tuple[tuple[str, NodeAllocation], ...] | None = None
        else:
            entries = []
            for entry in allocations:
                if isinstance(entry, NodeAllocation):
                    entries.append((f"nodes{entry.num_nodes}", entry))
                else:
                    label, alloc = entry
                    entries.append((str(label), alloc))
            self.allocations = tuple(entries)
        self.metrics: tuple[MetricSpec, ...] = tuple(
            as_metric_spec(m) for m in metrics
        )
        self.tags: dict[str, Any] = dict(tags or {})
        self.overrides: tuple[CellOverride, ...] = tuple(overrides)
        if not self.instances:
            raise ValueError("a sweep needs at least one instance")
        if not self.stencils:
            raise ValueError("a sweep needs at least one stencil")
        if not self.mappers:
            raise ValueError("a sweep needs at least one mapper")
        # Rows join back to cells by label: a duplicated label would make
        # two axis entries indistinguishable in every filter/group/pivot
        # (and silently overwrite pivot cells), so refuse it up front.
        for axis, labels in (
            ("instance", [inst.label for inst in self.instances]),
            ("stencil", [name for name, _ in self.stencils]),
            ("mapper", [name for name, _ in self.mappers]),
            ("allocation", [name for name, _ in self.allocations or ()]),
        ):
            duplicates = {x for x, n in Counter(labels).items() if n > 1}
            if duplicates:
                raise ValueError(
                    f"duplicate {axis} label(s) {sorted(duplicates)}; give "
                    f"each axis entry a distinct label (e.g. pass (name, "
                    f"{axis}) pairs or set explicit labels)"
                )
        self._cells: tuple[SweepCell, ...] | None = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _resolve_stencil(
        self, axis_index: int, ndim: int, cache: dict
    ) -> Stencil:
        """Resolve one stencil-axis entry for *ndim*, memoized per compile.

        Family factories build a fresh (but value-equal) Stencil per
        call; resolving once per (axis entry, dimensionality) instead of
        per cell keeps spec compilation O(instances) rather than
        O(cells) on the stencil axis.  Resolution failures are memoized
        too and re-raised for each affected instance group.
        """
        key = (axis_index, ndim)
        if key not in cache:
            _, stencil_or_factory = self.stencils[axis_index]
            try:
                cache[key] = (
                    stencil_or_factory
                    if isinstance(stencil_or_factory, Stencil)
                    else stencil_or_factory(ndim)
                )
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                cache[key] = exc
        resolved = cache[key]
        if isinstance(resolved, Exception):
            raise resolved
        return resolved

    @staticmethod
    def _axis_mismatch(
        instance: InstanceSpec, stencil_name: str, is_workload_axis: bool
    ) -> str | None:
        """Why *instance* cannot be crossed with this stencil-axis entry.

        The workload and stencil axes must agree per cell; a mismatch is
        an actionable error cell naming the offending labels, not a crash
        (and not a silently wrong evaluation).
        """
        if instance.workload is not None and not is_workload_axis:
            return (
                f"workload instance {instance.label!r} cannot be crossed "
                f"with stencil axis entry {stencil_name!r}: the workload "
                f"({instance.workload.name!r}) supplies its own "
                f"communication structure; list {WORKLOAD_AXIS!r} on the "
                "stencil axis for this instance (or split workload and "
                "Cartesian instances into separate sweeps)"
            )
        if is_workload_axis and instance.workload is None:
            return (
                f"stencil axis entry {WORKLOAD_AXIS!r} needs workload "
                f"instances, but instance {instance.label!r} is a plain "
                "grid instance; build workload instances with "
                "InstanceSpec.from_workload(...) (or drop the "
                f"{WORKLOAD_AXIS!r} axis entry)"
            )
        return None

    def _compile_group(
        self,
        cells: list[SweepCell],
        instance: InstanceSpec,
        alloc_label: str | None,
        alloc: NodeAllocation,
        stencil_name: str,
        resolve_stencil: Callable[[], Stencil],
        override_metrics: dict[int, tuple[MetricSpec, ...]],
        is_workload_axis: bool,
    ) -> None:
        """Append one cell per mapper of an (instance, allocation, stencil
        entry) group.

        The group validates one :class:`~repro.engine.MappingRequest` per
        metric tuple its cells use; every cell's request is a copy of it
        carrying the cell's mapper and index tag, which validation never
        reads.  A request that fails validation makes each cell sharing
        its metrics an error cell with the same message.
        """
        mismatch = self._axis_mismatch(instance, stencil_name, is_workload_axis)
        group_tags = dict(self.tags)
        if alloc_label is not None:
            group_tags.setdefault("allocation", alloc_label)
        # metric source (None: the spec's, else an override's position)
        # -> the validated request, or the error text of its failure
        validated: dict[int | None, MappingRequest | str] = {}
        for mapper_name, mapper_spec in self.mappers:
            index = len(cells)
            metrics, source = self.metrics, None
            tags = dict(group_tags)
            skip = False
            for position, override in enumerate(self.overrides):
                if override.matches(instance.label, stencil_name, mapper_name):
                    if override.metrics is not None:
                        if position not in override_metrics:
                            override_metrics[position] = tuple(
                                as_metric_spec(m) for m in override.metrics
                            )
                        metrics, source = override_metrics[position], position
                    if override.tags:
                        tags.update(override.tags)
                    skip = skip or override.skip
            request = None
            error = "skipped by override" if skip else mismatch
            if error is None:
                if source in validated:
                    request = validated[source]
                    if isinstance(request, MappingRequest):
                        request = request._with_mapper_and_tag(mapper_spec, index)
                else:
                    # the first cell keeps the request validated for it
                    request = validated[source] = self._validated_request(
                        instance, alloc, resolve_stencil, is_workload_axis,
                        mapper_spec, metrics, index,
                    )
                if isinstance(request, str):
                    request, error = None, request
            cells.append(SweepCell._of(
                index, instance, stencil_name, mapper_name, mapper_spec,
                metrics, tags, request, error,
            ))

    @staticmethod
    def _validated_request(
        instance: InstanceSpec,
        alloc: NodeAllocation,
        resolve_stencil: Callable[[], Stencil],
        is_workload_axis: bool,
        mapper_spec,
        metrics: tuple[MetricSpec, ...],
        index: int,
    ) -> MappingRequest | str:
        """The constructed request of one cell, or why it failed."""
        try:
            if is_workload_axis:
                return MappingRequest(
                    workload=instance.workload,
                    alloc=alloc,
                    mapper=mapper_spec,
                    metrics=metrics,
                    tag=index,
                )
            return MappingRequest(
                grid=instance.grid,
                stencil=resolve_stencil(),
                alloc=alloc,
                mapper=mapper_spec,
                metrics=metrics,
                tag=index,
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            # a malformed cell must not abort the other cells of the sweep
            return f"{type(exc).__name__}: {exc}"

    def cells(self) -> tuple[SweepCell, ...]:
        """The compiled cross-product, in deterministic cell order."""
        if self._cells is None:
            cells: list[SweepCell] = []
            stencil_cache: dict = {}
            override_metrics: dict[int, tuple[MetricSpec, ...]] = {}
            for instance in self.instances:
                alloc_axis = (
                    [(None, instance.alloc)]
                    if self.allocations is None
                    else list(self.allocations)
                )
                ndim = 0 if instance.grid is None else instance.grid.ndim
                for alloc_label, alloc in alloc_axis:
                    for axis_index, (stencil_name, axis_value) in enumerate(
                        self.stencils
                    ):
                        def resolve_stencil(i=axis_index, d=ndim):
                            return self._resolve_stencil(i, d, stencil_cache)

                        self._compile_group(
                            cells,
                            instance,
                            alloc_label,
                            alloc,
                            stencil_name,
                            resolve_stencil,
                            override_metrics,
                            is_workload_axis=axis_value is None,
                        )
            self._cells = tuple(cells)
        return self._cells

    def fingerprint(self) -> str:
        """Stable content digest of the compiled sweep.

        Two specs with the same fingerprint compile to the same cells
        in the same order, so a repeat submission to a standing service
        daemon with a cache directory is answered from its result store
        without dispatching work.  Cells whose requests have no stable
        content key (configured mapper *instances*, exotic metric
        params) contribute their label triple instead, so the
        fingerprint still identifies the sweep even when individual
        cells are not servable from the store.
        """
        from .engine.diskcache import request_payload, stable_digest

        parts: list[str] = []
        for cell in self.cells():
            payload = None
            if cell.request is not None:
                payload = request_payload(cell.request)
            if payload is None:
                payload = repr(
                    (cell.instance.label, cell.stencil, cell.mapper, cell.error)
                )
            parts.append(payload)
        return stable_digest("\n".join(parts))

    def subset(
        self,
        *,
        instances: Iterable[str] | None = None,
        stencils: Iterable[str] | None = None,
        mappers: Iterable[str] | None = None,
    ) -> "SweepSpec":
        """A new spec restricted (and reordered) to the named labels.

        Each argument is an iterable of axis labels; ``None`` keeps the
        axis unchanged.  The returned spec lists the entries in the
        *given* order — a portfolio search uses this to pick each
        rung's surviving mappers and its slice of the instance axis,
        shuffled under a seed.  Unknown labels raise :class:`ValueError`.  Allocations,
        metrics, tags and overrides carry over unchanged.
        """

        def pick(selection, entries, label_of, axis):
            if selection is None:
                return entries
            by_label = {label_of(entry): entry for entry in entries}
            chosen = []
            for label in selection:
                if label not in by_label:
                    raise ValueError(
                        f"unknown {axis} label {label!r}; have "
                        f"{sorted(by_label)}"
                    )
                chosen.append(by_label[label])
            return tuple(chosen)

        return SweepSpec(
            pick(instances, self.instances, lambda i: i.label, "instance"),
            stencils=pick(stencils, self.stencils, lambda s: s[0], "stencil"),
            mappers=pick(mappers, self.mappers, lambda m: m[0], "mapper"),
            allocations=self.allocations,
            metrics=self.metrics,
            tags=self.tags,
            overrides=self.overrides,
        )

    def compile(self) -> list[MappingRequest]:
        """The executable requests of the sweep (error cells excluded)."""
        return [cell.request for cell in self.cells() if cell.request is not None]

    def __len__(self) -> int:
        return len(self.cells())

    def __repr__(self) -> str:
        return (
            f"SweepSpec({len(self.instances)} instance(s) x "
            f"{len(self.stencils)} stencil(s) x {len(self.mappers)} "
            f"mapper(s){' x ' + str(len(self.allocations)) + ' alloc(s)' if self.allocations else ''}, "
            f"metrics={[m.name for m in self.metrics]})"
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SweepRow:
    """One cell's outcome, flattened for columnar post-processing.

    ``metrics`` holds the extra metric columns (and any derived columns
    added by :meth:`ResultSet.with_columns`); ``params`` the instance
    parameters; ``tags`` the caller payload.  ``result`` keeps the live
    :class:`~repro.engine.MappingResult` (permutation access for model
    evaluation) and is dropped by serialization — a deserialized row has
    ``result=None``.
    """

    instance: str
    stencil: str
    mapper: str
    ok: bool
    error: str | None
    jsum: int | None
    jmax: int | None
    metrics: dict[str, Any] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)
    result: MappingResult | None = field(default=None, repr=False)

    def get(self, name: str, default: Any = None) -> Any:
        """Column lookup: row attribute, then metrics, params, tags."""
        if name in ("instance", "stencil", "mapper", "ok", "error", "jsum", "jmax"):
            return getattr(self, name)
        for source in (self.metrics, self.params, self.tags):
            if name in source:
                return source[name]
        return default


#: Exact value types a flat payload dict may hold for :func:`_json_safe`
#: to copy it as is (finite ``float`` is checked separately; subclasses
#: such as ``np.float64`` or ``IntEnum`` take the converting path).
_PLAIN_VALUE_TYPES = frozenset({str, int, bool, type(None)})


def _json_safe(value):
    """Strict-JSON conversion of row payload values.

    Non-finite floats have no RFC 8259 representation: NaN (the sweep's
    "no value" marker, e.g. failed reduction cells) becomes ``null``,
    and infinities become the tagged object ``{"$float": "Infinity"}`` /
    ``{"$float": "-Infinity"}`` that :func:`_json_restore` maps back to
    floats (a tag that cannot collide with ordinary string payloads).

    A dict with ``str`` keys and ``str``/``int``/``bool``/``None``/finite
    ``float`` values is already strict JSON: it is copied without
    recursing into its values.
    """
    if type(value) is dict:
        for key, item in value.items():
            kind = type(item)
            if type(key) is not str or not (
                kind in _PLAIN_VALUE_TYPES
                or (kind is float and math.isfinite(item))
            ):
                break
        else:
            return dict(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return None
        return {"$float": "Infinity" if value > 0 else "-Infinity"}
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def _json_restore(value):
    """Inverse of :func:`_json_safe`'s infinity encoding."""
    if isinstance(value, dict):
        if set(value) == {"$float"} and value["$float"] in (
            "Infinity",
            "-Infinity",
        ):
            return float("inf") if value["$float"] == "Infinity" else float("-inf")
        return {k: _json_restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_restore(v) for v in value]
    return value


def _cell_outcome(cell: SweepCell, result: MappingResult | None) -> tuple:
    """``(ok, error, jsum, jmax, metrics)`` of a cell's result, or of its
    compile failure when it has none."""
    if result is None:
        return False, cell.error or "cell did not compile", None, None, {}
    return result.ok, result.error, result.jsum, result.jmax, result.metrics


def _row_from_cell(cell: SweepCell, result: MappingResult | None) -> SweepRow:
    ok, error, jsum, jmax, metrics = _cell_outcome(cell, result)
    return SweepRow(
        instance=cell.instance.label,
        stencil=cell.stencil,
        mapper=cell.mapper,
        ok=ok,
        error=error,
        jsum=jsum,
        jmax=jmax,
        metrics=dict(metrics),
        params=dict(cell.instance.params),
        tags=dict(cell.tags),
        result=result,
    )


def _plain_row(
    instance, stencil, mapper, ok, error, jsum, jmax, metrics, params, tags
) -> dict:
    """One :meth:`ResultSet.to_rows` entry (JSON-safe, ``result`` dropped)."""
    return {
        "instance": instance,
        "stencil": stencil,
        "mapper": mapper,
        "ok": bool(ok),
        "error": error,
        "jsum": None if jsum is None else int(jsum),
        "jmax": None if jmax is None else int(jmax),
        "metrics": _json_safe(metrics),
        "params": _json_safe(params),
        "tags": _json_safe(tags),
    }


class ResultSet:
    """Columnar sweep results: deterministic order, filter/group/pivot.

    Rows arrive in the spec's cell order from :func:`run` (regardless of
    which backend or shard produced them) and keep that order through
    every transformation, so serialized output is reproducible.

    Sets built by :func:`run` materialize their :class:`SweepRow`
    objects lazily on first access: executing a compiled sweep then
    costs only the engine batch, and row construction is paid by the
    consumer that actually reads them.
    """

    def __init__(self, rows: Iterable[SweepRow] = ()):
        self._rows: tuple[SweepRow, ...] | None = tuple(rows)
        self._pending: list[tuple[SweepCell, MappingResult | None]] | None = None

    @classmethod
    def _deferred(
        cls, pairs: list[tuple[SweepCell, MappingResult | None]]
    ) -> "ResultSet":
        """A set whose rows are built on first access (used by run())."""
        result_set = cls.__new__(cls)
        result_set._rows = None
        result_set._pending = pairs
        return result_set

    # -- container protocol -------------------------------------------
    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """The rows, in deterministic sweep order."""
        if self._rows is None:
            self._rows = tuple(
                _row_from_cell(cell, result) for cell, result in self._pending
            )
            self._pending = None
        return self._rows

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._pending)
        return len(self._rows)

    def __iter__(self) -> Iterator[SweepRow]:
        return iter(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.rows[index])
        return self.rows[index]

    def __add__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.rows + tuple(other))

    def __repr__(self) -> str:
        failed = sum(1 for row in self.rows if not row.ok)
        return f"ResultSet({len(self.rows)} rows, {failed} failed)"

    # -- relational operations ----------------------------------------
    def filter(self, predicate=None, /, **eq) -> "ResultSet":
        """Rows matching a predicate and/or column equality constraints.

        ``eq`` keys resolve like :meth:`SweepRow.get`: row attributes
        first, then metric, param and tag columns.
        """
        rows = self.rows
        if predicate is not None:
            rows = tuple(row for row in rows if predicate(row))
        for key, value in eq.items():
            rows = tuple(row for row in rows if row.get(key) == value)
        return ResultSet(rows)

    def ok(self) -> "ResultSet":
        """Only the successfully evaluated rows."""
        return self.filter(lambda row: row.ok)

    def best(
        self, objective: str = "jsum", *, minimize: bool = True
    ) -> SweepRow | None:
        """The ok row optimizing *objective* (``None`` when no row has
        it).  Ties resolve to the first row in deterministic order, so
        two runs of the same sweep agree on the winner."""
        best_row = None
        best_value = None
        for row in self.rows:
            if not row.ok:
                continue
            value = row.get(objective)
            if value is None:
                continue
            if best_value is None or (
                value < best_value if minimize else value > best_value
            ):
                best_row, best_value = row, value
        return best_row

    def failed(self) -> "ResultSet":
        """Only the error rows (rejections, compile failures, ...)."""
        return self.filter(lambda row: not row.ok)

    def column(self, name: str) -> list:
        """One column as a list, in row order."""
        return [row.get(name) for row in self.rows]

    def group_by(self, *keys: str) -> dict:
        """Split into sub-results by one or more columns.

        Returns ``{value: ResultSet}`` for a single key and
        ``{(v1, v2, ...): ResultSet}`` for several; group order follows
        first appearance.
        """
        if not keys:
            raise ValueError("group_by needs at least one key")
        groups: dict[Any, list[SweepRow]] = {}
        for row in self.rows:
            key = (
                row.get(keys[0])
                if len(keys) == 1
                else tuple(row.get(k) for k in keys)
            )
            groups.setdefault(key, []).append(row)
        return {key: ResultSet(rows) for key, rows in groups.items()}

    def pivot(
        self,
        index: str = "instance",
        columns: str = "mapper",
        values: str = "jsum",
    ) -> dict:
        """A two-level ``{index: {column: value}}`` table of one column.

        Cells a sweep never produced are absent; failed cells surface as
        ``None``.  Later duplicates (if any) overwrite earlier ones.
        """
        table: dict[Any, dict[Any, Any]] = {}
        for row in self.rows:
            table.setdefault(row.get(index), {})[row.get(columns)] = row.get(
                values
            )
        return table

    def with_columns(
        self, fn: Callable[[SweepRow], Mapping[str, Any] | None]
    ) -> "ResultSet":
        """Derive extra metric columns row-by-row (post-processing seam).

        *fn* maps each row to a ``{column: value}`` mapping (or ``None``
        to leave the row unchanged); the returned set carries the merged
        metrics, keeping order and every other field.
        """
        rows = []
        for row in self.rows:
            extra = fn(row)
            if not extra:
                rows.append(row)
                continue
            metrics = dict(row.metrics)
            metrics.update(extra)
            rows.append(
                SweepRow(
                    instance=row.instance,
                    stencil=row.stencil,
                    mapper=row.mapper,
                    ok=row.ok,
                    error=row.error,
                    jsum=row.jsum,
                    jmax=row.jmax,
                    metrics=metrics,
                    params=dict(row.params),
                    tags=dict(row.tags),
                    result=row.result,
                )
            )
        return ResultSet(rows)

    # -- serialization ------------------------------------------------
    def to_rows(self) -> list[dict]:
        """Plain-data rows (JSON-safe, ``result`` dropped).

        A set from :func:`run` whose :attr:`rows` were never read builds
        them straight from its cells and results, converting each
        instance's ``params`` once, without materialising
        :class:`SweepRow` objects.
        """
        if self._rows is not None:
            return [
                _plain_row(
                    row.instance, row.stencil, row.mapper, row.ok, row.error,
                    row.jsum, row.jmax, row.metrics, row.params, row.tags,
                )
                for row in self._rows
            ]
        params_of: dict[int, dict] = {}
        rows = []
        for cell, result in self._pending:
            instance = cell.instance
            params = params_of.get(id(instance))
            if params is None:
                params = params_of[id(instance)] = _json_safe(dict(instance.params))
            rows.append(_plain_row(
                instance.label, cell.stencil, cell.mapper,
                *_cell_outcome(cell, result), params, cell.tags,
            ))
        return rows

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "ResultSet":
        """Rebuild a set from :meth:`to_rows` output (``result=None``)."""
        return cls(
            SweepRow(
                instance=row["instance"],
                stencil=row["stencil"],
                mapper=row["mapper"],
                ok=bool(row["ok"]),
                error=row.get("error"),
                jsum=row.get("jsum"),
                jmax=row.get("jmax"),
                metrics=_json_restore(dict(row.get("metrics") or {})),
                params=_json_restore(dict(row.get("params") or {})),
                tags=_json_restore(dict(row.get("tags") or {})),
            )
            for row in rows
        )

    def to_json(self, path=None, *, indent: int | None = 2) -> str:
        """JSON document ``{"schema": ..., "rows": [...]}``.

        With *path* the document is also written to that file.
        """
        text = json.dumps(
            {"schema": "repro.sweep/v1", "rows": self.to_rows()},
            indent=indent,
            allow_nan=False,  # to_rows output is strict-JSON by contract
        )
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Inverse of :meth:`to_json` (also accepts a bare row list)."""
        data = json.loads(text)
        rows = data["rows"] if isinstance(data, dict) else data
        return cls.from_rows(rows)

    _BASE_COLUMNS = ("instance", "stencil", "mapper", "ok", "error", "jsum", "jmax")

    def _flat_columns(self) -> list[str]:
        extra: dict[str, None] = {}
        for kind in ("metrics", "params", "tags"):
            for row in self.rows:
                for key in sorted(getattr(row, kind)):
                    extra.setdefault(f"{kind}.{key}", None)
        return list(self._BASE_COLUMNS) + list(extra)

    def _flat_rows(self) -> list[dict]:
        """to_rows with ``metrics.*``/``params.*``/``tags.*`` flattened —
        the single source for the CSV and text-table serializers."""
        flattened = []
        for row in self.to_rows():
            flat = {key: row[key] for key in self._BASE_COLUMNS}
            for kind in ("metrics", "params", "tags"):
                for key, value in row[kind].items():
                    flat[f"{kind}.{key}"] = value
            flattened.append(flat)
        return flattened

    def to_csv(self, path=None) -> str:
        """Flat CSV with ``metrics.*``/``params.*``/``tags.*`` columns."""
        columns = self._flat_columns()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(self._flat_rows())
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(buffer.getvalue())
        return buffer.getvalue()

    def to_table(self) -> str:
        """Aligned plain-text table of the flattened columns."""
        columns = self._flat_columns()
        rows = []
        for flat in self._flat_rows():
            rows.append(
                [
                    ""
                    if flat.get(c) is None
                    else (f"{flat[c]:.6g}" if isinstance(flat[c], float) and math.isfinite(flat[c]) else str(flat[c]))
                    for c in columns
                ]
            )
        widths = [
            max(len(column), *(len(r[i]) for r in rows)) if rows else len(column)
            for i, column in enumerate(columns)
        ]
        lines = [
            "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()
        ]
        for r in rows:
            lines.append(
                "  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _acquire_backend(backend) -> tuple[Backend, Backend | None]:
    """Resolve *backend*; the second element is what :func:`run` owns."""
    if backend is None or isinstance(backend, str):
        resolved = resolve_backend(backend)
        return resolved, resolved
    return backend, None


def run(spec: SweepSpec, backend=None) -> ResultSet:
    """Execute a sweep and return its :class:`ResultSet`.

    *backend* accepts a :class:`~repro.engine.Backend` (or a bare
    :class:`~repro.engine.EvaluationEngine`), a CLI-style spec string
    (``"serial"``, ``"process:4"``, ``"service:port"``), or ``None``
    for a private serial engine.  Passed-in backends stay open (and keep
    their warm caches) for the caller.

    Rows come back in the spec's deterministic cell order; cells that
    failed to compile or whose mapper/metric rejected the instance are
    error rows, never exceptions.
    """
    cells = spec.cells()
    backend, owned = _acquire_backend(backend)
    requests = [cell.request for cell in cells if cell.request is not None]
    try:
        results = iter(backend.evaluate_batch(requests))
    finally:
        if owned is not None:
            owned.close()
    # Deferred row construction: executing a compiled sweep costs only
    # the engine batch; SweepRow objects materialize on first read.
    return ResultSet._deferred(
        [
            (cell, None if cell.request is None else next(results))
            for cell in cells
        ]
    )


def run_stream(
    spec: SweepSpec, backend=None, *, indexed: bool = False
) -> Iterator[SweepRow]:
    """Execute a sweep, yielding rows as the backend completes them.

    Compile-failure rows are yielded first; evaluated rows follow in
    the backend's completion order (async consumers render results as
    they land instead of barriering on the batch).  Closing the
    generator early cancels work that has not started.

    With ``indexed=True`` every element is a ``(cell_index, row)`` pair
    instead of a bare row — the cell index is the row's position in the
    spec's deterministic cell order, so an incremental consumer (the
    portfolio search racing loop) can reassemble completion-ordered
    rows back into spec order.
    """
    cells = spec.cells()
    backend, owned = _acquire_backend(backend)
    try:
        by_index = {}
        pending = []
        for cell in cells:
            if cell.request is None:
                row = _row_from_cell(cell, None)
                yield (cell.index, row) if indexed else row
            else:
                by_index[cell.index] = cell
                pending.append(cell.request)
        for result in backend.evaluate_stream(pending):
            index = result.request.tag
            row = _row_from_cell(by_index[index], result)
            yield (index, row) if indexed else row
    finally:
        if owned is not None:
            owned.close()
