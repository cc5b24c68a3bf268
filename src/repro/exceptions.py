"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  More specific subclasses signal distinct failure modes:
configuration problems (bad grids/stencils), mapping-time failures (a mapper
cannot handle the given instance), and simulation misuse.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidGridError",
    "InvalidStencilError",
    "AllocationError",
    "MappingError",
    "FactorizationError",
    "SimulationError",
    "ClusterError",
    "ServiceError",
    "SearchError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidGridError(ReproError, ValueError):
    """A Cartesian grid specification is malformed.

    Raised for empty dimension lists, non-positive dimension sizes, or
    coordinate/rank arguments that lie outside the grid.
    """


class InvalidStencilError(ReproError, ValueError):
    """A stencil specification is malformed.

    Raised for empty neighbourhoods, offset vectors whose length does not
    match the grid dimensionality, or all-zero offsets (self-communication).
    """


class AllocationError(ReproError, ValueError):
    """A node allocation does not match the process count.

    Raised when ``sum(n_i) != p`` or a node capacity is non-positive.
    """


class MappingError(ReproError, RuntimeError):
    """A mapping algorithm failed on a structurally valid instance.

    This signals an instance outside the algorithm's domain (for example
    Nodecart with node sizes that do not factor into the grid) rather than
    a bug; the caller should fall back to another mapper.
    """


class FactorizationError(MappingError):
    """No suitable factorisation exists for a factorisation-based mapper."""


class SimulationError(ReproError, RuntimeError):
    """Misuse of the simulated MPI layer (mismatched buffers, bad ranks)."""


class ClusterError(ReproError, RuntimeError):
    """The distributed evaluation cluster cannot complete a sweep.

    Raised (as :class:`ServiceError`) when the coordinator is closed
    with shards outstanding, or a worker reports that a shard crashed
    its engine (requeueing a deterministically crashing shard would
    loop forever).  Transient worker failures — disconnects, missed
    heartbeats — do *not* raise: their shards are requeued and the sweep
    degrades in throughput only.
    """


class ServiceError(ClusterError):
    """A standing sweep service cannot complete a submitted job.

    Raised when the daemon is unreachable or rejects the handshake
    (stale protocol, missing/mismatched shared secret), when a job
    fails or is cancelled while its results are being streamed, or when
    the daemon shuts down mid-job.  Subclasses :class:`ClusterError`,
    the base of every distributed-tier failure.
    """


class SearchError(ReproError, RuntimeError):
    """A portfolio mapper search cannot produce a winner.

    Raised when every candidate names an unknown mapper, when a rung's
    evaluation stream fails (backend down, a mapper raising something
    other than :class:`MappingError`), or when a budget ends the race
    before the first rung is ranked.  An unknown candidate alone does
    *not* raise: it gets an ``error`` audit record and the race
    continues with the others.
    """
