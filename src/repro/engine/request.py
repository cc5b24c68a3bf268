"""Request/result records of the batched evaluation engine."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core import Mapper
from ..exceptions import InvalidStencilError, MappingError
from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil
from ..hardware.allocation import NodeAllocation
from ..metrics.cost import MappingCost
from ..workloads.base import WorkloadBase
from .metrics import MetricSpec, as_metric_spec, list_metrics

__all__ = ["MappingRequest", "MappingResult", "group_by_instance", "rebuild_result"]


@dataclass(frozen=True, eq=False)
class MappingRequest:
    """One mapping evaluation: run *mapper* on an instance.

    The instance is either the classic Cartesian triple ``(grid,
    stencil, alloc)`` or a first-class ``workload`` plus ``alloc`` — any
    :class:`~repro.workloads.WorkloadBase` family (Cartesian, stencil
    program, general graph).  A workload with Cartesian structure fills
    ``grid``/``stencil`` automatically so every downstream consumer
    keeps working; a workload whose communication graph *is* its
    grid x stencil graph is routed through the exact same caches and
    content keys as a plain request, bit-identical.

    Requests compare and hash by object identity (``eq=False``): the
    optional ``perm``/``tag`` payloads are not reliably comparable, and
    the engine deduplicates by instance and mapper spec, not by request
    equality.

    Parameters
    ----------
    mapper:
        A registry name (``"nodecart"``) or a configured
        :class:`~repro.core.Mapper` instance.
    workload:
        Optional first-class workload.  Mutually consistent with
        ``grid``/``stencil``: leave them ``None`` (the workload supplies
        its own structure, possibly none) or pass exactly the workload's
        own grid/stencil.
    perm:
        Optional pre-computed permutation; when given the mapper is not
        run and only the ``Jsum``/``Jmax`` scoring happens (used to score
        externally produced mappings through the same cached pipeline).
        Must have exactly ``num_processes`` entries; a mismatched length
        is rejected here with a clear message instead of failing inside
        the batch kernel.
    metrics:
        Extra batch-level metrics to compute alongside the always-on
        ``Jsum``/``Jmax`` cost: a tuple of
        :class:`~repro.engine.metrics.MetricSpec` objects or plain
        registry names (e.g. the spec built by
        :func:`repro.engine.metrics.weighted_bytes_metric` or
        :func:`repro.engine.metrics.topology_cut_metric`).  Values
        arrive on :attr:`MappingResult.metrics`, one ``{column: value}``
        entry per metric column.  Unknown metric names are rejected at
        construction time.
    tag:
        Opaque caller payload carried through to the result, handy for
        joining batch output back to driver state (instance labels,
        figure row indices, ...).

    The constructor validates every argument.  The private
    :meth:`_with_mapper_and_tag` copy changes only ``mapper`` and
    ``tag`` and skips that validation: ``__post_init__`` never reads
    either field (a mapper name is resolved, and may fail, only when the
    engine runs the request), so a copy of a valid request is valid.
    A sweep validates one request per instance group and derives each
    cell's request from it; tag stripping copies with ``tag=None``.
    """

    grid: CartesianGrid | None = None
    stencil: Stencil | None = None
    alloc: NodeAllocation | None = None
    mapper: str | Mapper = "blocked"
    perm: np.ndarray | None = None
    metrics: tuple[MetricSpec, ...] = ()
    tag: Any = None
    workload: WorkloadBase | None = None

    def __post_init__(self):
        # Fail malformed instances here, with a clear message, instead of
        # mid-batch from inside the engine's cache machinery.
        if self.workload is not None:
            if not isinstance(self.workload, WorkloadBase):
                raise MappingError(
                    f"workload must be a WorkloadBase, got "
                    f"{type(self.workload).__name__} (coerce generator "
                    "output with repro.workloads.as_workload)"
                )
            wgrid, wstencil = self.workload.grid, self.workload.stencil
            if self.grid is not None and self.grid != wgrid:
                raise MappingError(
                    f"request grid {self.grid!r} conflicts with workload "
                    f"{self.workload.name!r}; pass the workload alone (it "
                    "supplies its own grid)"
                )
            if self.stencil is not None and self.stencil != wstencil:
                raise MappingError(
                    f"request stencil conflicts with workload "
                    f"{self.workload.name!r}; pass the workload alone (it "
                    "supplies its own stencil structure)"
                )
            if self.grid is None and wgrid is not None:
                object.__setattr__(self, "grid", wgrid)
            if self.stencil is None and wstencil is not None:
                object.__setattr__(self, "stencil", wstencil)
        elif self.grid is None or self.stencil is None:
            raise MappingError(
                "a MappingRequest needs either a workload or a "
                "grid/stencil pair"
            )
        if self.alloc is None:
            raise MappingError("a MappingRequest needs a node allocation")
        if self.grid is not None and self.stencil is not None:
            if self.stencil.ndim != self.grid.ndim:
                raise InvalidStencilError(
                    f"stencil dimensionality {self.stencil.ndim} does not "
                    f"match grid dimensionality {self.grid.ndim}"
                )
        self.alloc.check_matches(self.num_processes)
        if self.perm is not None:
            shape = np.shape(self.perm)
            if shape != (self.num_processes,):
                raise MappingError(
                    f"explicit perm has shape {shape}, expected "
                    f"({self.num_processes},) to match the instance — the "
                    f"mapping must place every process exactly once"
                )
        specs = tuple(as_metric_spec(m) for m in self.metrics)
        known = set(list_metrics())
        unknown = [spec.name for spec in specs if spec.name not in known]
        if unknown:
            raise KeyError(
                f"unknown metric(s) {unknown}; registered: {sorted(known)}"
            )
        object.__setattr__(self, "metrics", specs)

    def _with_mapper_and_tag(self, mapper: str | Mapper, tag: Any) -> "MappingRequest":
        """This request with another ``mapper`` and ``tag``, not re-validated.

        Sound only because ``__post_init__`` reads neither field.  The
        copy's attributes keep their declaration order, so it pickles
        exactly like a constructed request with the same values.
        """
        state = dict(self.__dict__)
        state["mapper"] = mapper
        state["tag"] = tag
        clone = object.__new__(MappingRequest)
        object.__setattr__(clone, "__dict__", state)
        return clone

    @property
    def num_processes(self) -> int:
        """Process count of the instance (grid size or workload vertices)."""
        if self.workload is not None:
            return self.workload.num_processes
        return self.grid.size

    @property
    def effective_workload(self) -> WorkloadBase | None:
        """The workload the engine must treat specially, or ``None``.

        ``None`` both for plain requests and for workloads whose
        communication graph is exactly their grid x stencil graph — those
        route through the classic Cartesian caches bit-identically.
        """
        if self.workload is None or self.workload.cartesian_equivalent():
            return None
        return self.workload

    @property
    def instance_key(self) -> tuple:
        """Hashable key of the evaluation instance.

        Requests sharing this key share communication edges and the
        rank-to-node array; the engine groups batches by it.  Cartesian
        requests (including Cartesian-equivalent workloads) key on
        ``(grid, stencil, alloc)``; other workloads key on their
        :meth:`~repro.workloads.WorkloadBase.cache_key`.
        """
        workload = self.effective_workload
        if workload is None:
            return (self.grid, self.stencil, self.alloc)
        return ("workload", workload.cache_key(), self.alloc)

    def mapper_label(self) -> str:
        """Display name of the requested mapper."""
        return self.mapper if isinstance(self.mapper, str) else self.mapper.name


def group_by_instance(requests: Sequence[MappingRequest]) -> dict[tuple, list[int]]:
    """Indices of *requests* by :attr:`~MappingRequest.instance_key`,
    groups in the order of their first request.

    Each distinct set of instance objects (grid, stencil, allocation,
    workload) has its key built and hashed once: the requests of one
    compiled sweep share those objects, and hashing a key rehashes its
    parts (a stencil builds a frozenset of its offsets each time).
    """
    groups: dict[tuple, list[int]] = {}
    # id()s are stable for the call: *requests* keeps every object alive.
    by_objects: dict[tuple[int, ...], list[int]] = {}
    for i, request in enumerate(requests):
        objects = (
            id(request.grid),
            id(request.stencil),
            id(request.alloc),
            id(request.workload),
        )
        indices = by_objects.get(objects)
        if indices is None:
            indices = groups.setdefault(request.instance_key, [])
            by_objects[objects] = indices
        indices.append(i)
    return groups


@dataclass(frozen=True, eq=False)
class MappingResult:
    """Outcome of one :class:`MappingRequest`.

    ``perm``/``cost`` are ``None`` when the mapper rejected the instance
    (e.g. Nodecart on non-factorisable node counts); ``error`` then holds
    the rejection message so sweeps can render "not applicable" cells.
    ``metrics`` carries the columns of every extra metric the request
    asked for; a metric that failed leaves its columns absent and puts
    the failure message in ``error`` while ``perm``/``cost`` stay
    available.  Like requests, results compare and hash by object
    identity (``eq=False``) because of their array payloads.
    """

    request: MappingRequest
    perm: np.ndarray | None
    cost: MappingCost | None = field(repr=False, default=None)
    error: str | None = None
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """``True`` when the instance was mapped, scored, and every
        requested metric computed."""
        return self.cost is not None and self.error is None

    @property
    def jsum(self) -> int | None:
        """``Jsum`` of the mapping, or ``None`` on rejection."""
        return None if self.cost is None else self.cost.jsum

    @property
    def jmax(self) -> int | None:
        """``Jmax`` of the mapping, or ``None`` on rejection."""
        return None if self.cost is None else self.cost.jmax


def rebuild_result(
    request: MappingRequest,
    perm: np.ndarray | None,
    cost: MappingCost | None,
    error: str | None,
    metrics: dict | None = None,
) -> MappingResult:
    """Rebuild a result that travelled by value against its original request.

    Process pools, service workers and the result store all hand cells
    back by value.  The unpickled buffers are frozen so results are indistinguishable
    from the in-process engine's (which shares read-only caches).
    """
    if perm is not None:
        perm.setflags(write=False)
    if cost is not None:
        cost.per_node.setflags(write=False)
    return MappingResult(
        request=request,
        perm=perm,
        cost=cost,
        error=error,
        metrics=dict(metrics or {}),
    )
