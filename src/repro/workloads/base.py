"""First-class workload families: what a sweep cell actually maps.

A *workload* is the communication structure one mapping request
evaluates: a vertex per process and a directed edge per point-to-point
message.  Three families implement the :class:`WorkloadBase` protocol:

* :class:`CartesianWorkload` — the paper's case, one stencil on one
  Cartesian grid.  Bit-identical to passing ``grid``/``stencil``
  directly: the engine detects the equivalence and routes through the
  exact same edge/permutation/cost caches and content keys.
* :class:`StencilProgramWorkload` — a multi-stage stencil *program*
  (StencilFlow-style): several fields/stages over one grid whose
  per-stage halo exchanges merge into a single weighted communication
  graph.  Edge weight is integer multiplicity — an exchange two stages
  share appears twice — so ``Jsum``/``Jmax`` stay exact integers and
  every batch kernel applies unchanged.
* :class:`GraphWorkload` — an irregular general communication graph
  (the ``examples/general_graph_mapping.py`` seed promoted to a
  first-class citizen; the ``graphmap`` mapper is its natural partner).

Every workload is picklable (it travels inside a
:class:`~repro.engine.MappingRequest` through the process, cluster and
service backends), hashable-by-key via :meth:`WorkloadBase.cache_key`
(the engine's in-memory grouping/memoization key) and content-stable
via :meth:`WorkloadBase.content_key` (the cross-process string the disk
stores and the service daemon's result store key on).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Hashable, Iterable

import numpy as np

from .._validation import as_int, check_edges
from ..exceptions import ReproError
from ..grid.graph import communication_edges
from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil

__all__ = [
    "WorkloadBase",
    "CartesianWorkload",
    "StencilProgramWorkload",
    "GraphWorkload",
    "as_workload",
]


class WorkloadBase(ABC):
    """Protocol every workload family implements.

    Subclasses are immutable value objects: equality and hashing follow
    :meth:`cache_key`, so two workloads with the same key are
    interchangeable everywhere the engine groups or memoizes.
    """

    @property
    @abstractmethod
    def num_processes(self) -> int:
        """Vertex count of the communication graph."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable workload label (sweep row / instance label)."""

    @abstractmethod
    def comm_edges(self) -> np.ndarray:
        """``(m, 2)`` int64 directed edge array.

        Duplicate rows are meaningful: an edge's multiplicity is its
        integer weight, and every cut kernel counts it that many times.
        """

    @abstractmethod
    def cache_key(self) -> Hashable:
        """Process-local hashable identity (engine grouping/memoization)."""

    @abstractmethod
    def content_key(self) -> str | None:
        """Stable cross-process content string, or ``None``.

        Feeds the disk-store payloads and the service daemon's
        content-addressed result store; ``None`` marks the workload
        uncacheable (it still evaluates, it just never dedupes).
        """

    @property
    def grid(self) -> CartesianGrid | None:
        """Cartesian structure, when the workload has one."""
        return None

    @property
    def stencil(self) -> Stencil | None:
        """A stencil Cartesian mappers may exploit, when one exists."""
        return None

    def cartesian_equivalent(self) -> tuple[CartesianGrid, Stencil] | None:
        """``(grid, stencil)`` when :meth:`comm_edges` is *exactly* the
        grid x stencil communication graph, else ``None``.

        The engine uses this to route equivalent workloads through the
        classic Cartesian caches and content keys, bit-identical to a
        plain ``grid``/``stencil`` request.
        """
        return None

    @property
    def num_edges(self) -> int:
        """Directed edge count (with multiplicity)."""
        return int(self.comm_edges().shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkloadBase):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())


class CartesianWorkload(WorkloadBase):
    """One stencil on one Cartesian grid (the paper's workload)."""

    def __init__(self, grid: CartesianGrid, stencil: Stencil):
        if not isinstance(grid, CartesianGrid):
            raise ReproError(f"grid must be a CartesianGrid, got {type(grid).__name__}")
        if not isinstance(stencil, Stencil):
            raise ReproError(f"stencil must be a Stencil, got {type(stencil).__name__}")
        if stencil.ndim != grid.ndim:
            raise ReproError(
                f"stencil is {stencil.ndim}-dimensional but the grid is "
                f"{grid.ndim}-dimensional"
            )
        self._grid = grid
        self._stencil = stencil

    @property
    def num_processes(self) -> int:
        return self._grid.size

    @property
    def name(self) -> str:
        return f"cartesian[{self._stencil.name}@{list(self._grid.dims)}]"

    @property
    def grid(self) -> CartesianGrid:
        return self._grid

    @property
    def stencil(self) -> Stencil:
        return self._stencil

    def comm_edges(self) -> np.ndarray:
        return communication_edges(self._grid, self._stencil)

    def cartesian_equivalent(self) -> tuple[CartesianGrid, Stencil]:
        return (self._grid, self._stencil)

    def cache_key(self) -> Hashable:
        return ("cartesian", self._grid, self._stencil)

    def content_key(self) -> str:
        return repr(
            (
                "cartesian",
                tuple(self._grid.dims),
                tuple(self._grid.periods),
                tuple(sorted(self._stencil.offsets)),
            )
        )

    def __repr__(self) -> str:
        return f"CartesianWorkload(grid={self._grid!r}, stencil={self._stencil!r})"


class StencilProgramWorkload(WorkloadBase):
    """A multi-stage stencil program over one grid (StencilFlow-style).

    Parameters
    ----------
    grid:
        The shared Cartesian process grid of every stage.
    stages:
        The program's stages, in order: :class:`~repro.grid.Stencil`
        objects or ``(label, stencil)`` pairs.  Each stage contributes
        its full halo-exchange edge set; exchanges shared by several
        stages accumulate integer multiplicity in the merged graph.
    name:
        Workload label (default: derived from the stage labels).
    """

    def __init__(
        self,
        grid: CartesianGrid,
        stages: Iterable,
        *,
        name: str | None = None,
    ):
        if not isinstance(grid, CartesianGrid):
            raise ReproError(f"grid must be a CartesianGrid, got {type(grid).__name__}")
        normalized: list[tuple[str, Stencil]] = []
        for index, stage in enumerate(stages):
            if isinstance(stage, Stencil):
                label, stencil = f"stage{index}", stage
            else:
                try:
                    label, stencil = stage
                except (TypeError, ValueError):
                    raise ReproError(
                        "stages must be Stencil objects or (label, Stencil) "
                        f"pairs, got {stage!r}"
                    ) from None
            if not isinstance(stencil, Stencil):
                raise ReproError(
                    f"stage {label!r} must hold a Stencil, got {type(stencil).__name__}"
                )
            if stencil.ndim != grid.ndim:
                raise ReproError(
                    f"stage {label!r} stencil is {stencil.ndim}-dimensional "
                    f"but the grid is {grid.ndim}-dimensional"
                )
            normalized.append((str(label), stencil))
        if not normalized:
            raise ReproError("a stencil program needs at least one stage")
        self._grid = grid
        self._stages = tuple(normalized)
        union_offsets = sorted({o for _, s in self._stages for o in s.offsets})
        self._union = Stencil(
            union_offsets, name="+".join(s.name for _, s in self._stages)
        )
        self._name = name or (
            f"program[{'+'.join(label for label, _ in self._stages)}"
            f"@{list(grid.dims)}]"
        )

    @property
    def num_processes(self) -> int:
        return self._grid.size

    @property
    def name(self) -> str:
        return self._name

    @property
    def grid(self) -> CartesianGrid:
        return self._grid

    @property
    def stencil(self) -> Stencil:
        """The union stencil: every offset any stage touches.

        This is what Cartesian mappers (hyperplane, strips, nodecart,
        ...) see; the *cost* edges keep per-stage multiplicity.
        """
        return self._union

    @property
    def stages(self) -> tuple[tuple[str, Stencil], ...]:
        """The ``(label, stencil)`` stages, in program order."""
        return self._stages

    def comm_edges(self) -> np.ndarray:
        parts = [communication_edges(self._grid, s) for _, s in self._stages]
        merged = np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0].copy()
        merged.setflags(write=False)
        return merged

    def cache_key(self) -> Hashable:
        return ("stencil-program", self._grid, self._stages)

    def content_key(self) -> str:
        return repr(
            (
                "stencil-program",
                tuple(self._grid.dims),
                tuple(self._grid.periods),
                tuple(
                    (label, tuple(sorted(s.offsets))) for label, s in self._stages
                ),
            )
        )

    def __repr__(self) -> str:
        return (
            f"StencilProgramWorkload(grid={self._grid!r}, "
            f"stages={[label for label, _ in self._stages]}, name={self._name!r})"
        )


class GraphWorkload(WorkloadBase):
    """An irregular general communication graph.

    Parameters
    ----------
    num_processes:
        Vertex count.
    edges:
        ``(m, 2)`` directed edge array; duplicate rows carry integer
        multiplicity.
    name:
        Workload label.
    """

    def __init__(self, num_processes: int, edges, name: str = "graph"):
        num_processes = as_int(num_processes, name="num_processes")
        if num_processes <= 0:
            raise ReproError(
                f"num_processes must be positive, got {num_processes}"
            )
        self._num_processes = num_processes
        # A private copy: the caller's array stays writeable, and writing
        # it cannot change a workload whose digest is already cached.
        self._edges = check_edges(
            np.array(edges, dtype=np.int64, order="C"), num_processes
        )
        self._edges.setflags(write=False)
        self._name = str(name)
        self._digest: str | None = None

    @classmethod
    def from_workload(cls, workload) -> "GraphWorkload":
        """Promote a :class:`~repro.workloads.Workload` generator result."""
        return cls(workload.num_processes, workload.edges, name=workload.name)

    @property
    def num_processes(self) -> int:
        return self._num_processes

    @property
    def name(self) -> str:
        return self._name

    def comm_edges(self) -> np.ndarray:
        return self._edges

    def edge_digest(self) -> str:
        """SHA-256 of the canonical edge bytes (content identity)."""
        if self._digest is None:
            hasher = hashlib.sha256()
            hasher.update(repr((self._num_processes, self._edges.shape)).encode())
            hasher.update(self._edges.tobytes())
            self._digest = hasher.hexdigest()
        return self._digest

    def cache_key(self) -> Hashable:
        return ("graph", self._num_processes, self.edge_digest())

    def content_key(self) -> str:
        return repr(("graph", self._num_processes, self.edge_digest()))

    def __getstate__(self):
        return {
            "num_processes": self._num_processes,
            "edges": np.asarray(self._edges),
            "name": self._name,
        }

    def __setstate__(self, state):
        self.__init__(state["num_processes"], state["edges"], name=state["name"])

    def __repr__(self) -> str:
        return (
            f"GraphWorkload(num_processes={self._num_processes}, "
            f"num_edges={self.num_edges}, name={self._name!r})"
        )


def as_workload(value) -> WorkloadBase:
    """Coerce *value* to a :class:`WorkloadBase`.

    Accepts any workload-family instance unchanged and promotes the
    :mod:`repro.workloads.generators` ``Workload`` dataclass to a
    :class:`GraphWorkload`.
    """
    if isinstance(value, WorkloadBase):
        return value
    if (
        hasattr(value, "num_processes")
        and hasattr(value, "edges")
        and hasattr(value, "name")
    ):
        return GraphWorkload.from_workload(value)
    raise TypeError(
        f"cannot interpret {type(value).__name__} as a workload; expected a "
        "WorkloadBase subclass or a repro.workloads.Workload"
    )
