"""repro — reproduction of *Efficient Process-to-Node Mapping Algorithms
for Stencil Computations* (Hunold, von Kirchbach, Lehr, Schulz, Träff;
IEEE CLUSTER 2020, arXiv:2005.09521).

The library provides:

* Cartesian grids, stencil neighbourhoods and their communication graphs
  (:mod:`repro.grid`),
* first-class workloads — Cartesian grid x stencil products, multi-stage
  stencil programs, and irregular general communication graphs — flowing
  through the whole evaluation stack (:mod:`repro.workloads`),
* the paper's three distributed mapping algorithms plus all evaluation
  baselines (:mod:`repro.core`),
* mapping-quality metrics ``Jsum``/``Jmax`` and the paper's statistics
  pipeline (:mod:`repro.metrics`),
* machine models of VSC4, SuperMUC-NG and JUWELS with a contention-aware
  communication cost model (:mod:`repro.hardware`),
* a simulated MPI layer with Cartesian/stencil communicators and a real
  ``neighbor_alltoall`` data exchange (:mod:`repro.mpisim`),
* the NP-hardness reduction of Theorem IV.3 (:mod:`repro.nphard`),
* the batched NumPy cost kernels behind every evaluation loop
  (:mod:`repro.kernels`),
* a batched, cached evaluation engine shared by every experiment
  driver, sharded across processes or hosts by its backends
  (:mod:`repro.engine`),
* a standing sweep service — one daemon, persistent workers, many
  concurrent prioritised driver jobs (:mod:`repro.service`),
* a portfolio search racing mapper candidates under a budget, one job
  per rung, so dominated ones evaluate no later instance
  (:mod:`repro.search`),
* drivers regenerating every figure and table of the evaluation
  (:mod:`repro.experiments`).

Quickstart
----------
>>> import repro
>>> grid = repro.CartesianGrid(repro.dims_create(2400, 2))
>>> stencil = repro.nearest_neighbor(2)
>>> alloc = repro.NodeAllocation.homogeneous(50, 48)
>>> perm = repro.HyperplaneMapper().map_ranks(grid, stencil, alloc)
>>> cost = repro.evaluate_mapping(grid, stencil, perm, alloc)
>>> cost.jsum < 4704  # better than the blocked baseline
True
"""

from .exceptions import (
    AllocationError,
    ClusterError,
    FactorizationError,
    InvalidGridError,
    InvalidStencilError,
    MappingError,
    ReproError,
    SearchError,
    ServiceError,
    SimulationError,
)
from .grid import (
    CartesianGrid,
    Stencil,
    communication_edges,
    communication_graph,
    component,
    degree_by_rank,
    dims_create,
    moore,
    nearest_neighbor,
    nearest_neighbor_with_hops,
)
from .hardware import (
    CommunicationModel,
    DragonflyTopology,
    FatTreeTopology,
    IslandTopology,
    MACHINES,
    Machine,
    NetworkParameters,
    NodeAllocation,
    SingleSwitchTopology,
    Torus3DTopology,
    juwels,
    supermuc_ng,
    topology_from_spec,
    vsc4,
)
from .workloads import (
    CartesianWorkload,
    GraphWorkload,
    StencilProgramWorkload,
    WorkloadBase,
    as_workload,
)
from .core import (
    BlockedMapper,
    GraphMapper,
    HyperplaneMapper,
    KDTreeMapper,
    Mapper,
    NodecartMapper,
    RandomMapper,
    StencilStripsMapper,
    available_mappers,
    get_mapper,
    register_mapper,
)
from .metrics import (
    ConfidenceInterval,
    MappingCost,
    evaluate_mapping,
    evaluate_mappings_batch,
    mean_ci,
    median_ci,
    reduction_over_blocked,
    remove_outliers_iqr,
)
from .engine import (
    EvaluationEngine,
    MappingRequest,
    MappingResult,
    MetricSpec,
    ProcessBackend,
    list_metrics,
    register_metric,
    resolve_backend,
    topology_cut_metric,
    weighted_bytes_metric,
)
from .service import (
    JobHandle,
    ServiceBackend,
    ServiceClient,
    ServiceDaemon,
)
from . import sweep  # noqa: F401  - the `repro.sweep` namespace is public API
from .sweep import (
    CellOverride,
    InstanceSpec,
    ResultSet,
    SweepRow,
    SweepSpec,
    run,
    run_stream,
)
from . import search  # noqa: F401  - the `repro.search` namespace is public API
from .search import (
    CandidateAudit,
    SearchResult,
    SearchSpec,
    run_search,
)

__version__ = "1.6.0"

__all__ = [
    # exceptions
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
    # grid
    "CartesianGrid",
    "Stencil",
    "nearest_neighbor",
    "component",
    "nearest_neighbor_with_hops",
    "moore",
    "communication_edges",
    "communication_graph",
    "degree_by_rank",
    "dims_create",
    # hardware
    "NodeAllocation",
    "FatTreeTopology",
    "IslandTopology",
    "SingleSwitchTopology",
    "Torus3DTopology",
    "DragonflyTopology",
    "topology_from_spec",
    "CommunicationModel",
    "NetworkParameters",
    "Machine",
    "MACHINES",
    "vsc4",
    "supermuc_ng",
    "juwels",
    # core
    "Mapper",
    "BlockedMapper",
    "RandomMapper",
    "HyperplaneMapper",
    "KDTreeMapper",
    "StencilStripsMapper",
    "NodecartMapper",
    "GraphMapper",
    "available_mappers",
    "get_mapper",
    "register_mapper",
    # metrics
    "MappingCost",
    "evaluate_mapping",
    "evaluate_mappings_batch",
    "reduction_over_blocked",
    "ConfidenceInterval",
    "mean_ci",
    "median_ci",
    "remove_outliers_iqr",
    # engine
    "EvaluationEngine",
    "MappingRequest",
    "MappingResult",
    "ProcessBackend",
    "resolve_backend",
    "MetricSpec",
    "register_metric",
    "list_metrics",
    "weighted_bytes_metric",
    "topology_cut_metric",
    # workloads
    "WorkloadBase",
    "CartesianWorkload",
    "StencilProgramWorkload",
    "GraphWorkload",
    "as_workload",
    # service
    "ServiceDaemon",
    "ServiceClient",
    "ServiceBackend",
    "JobHandle",
    # sweep
    "sweep",
    "SweepSpec",
    "InstanceSpec",
    "CellOverride",
    "SweepRow",
    "ResultSet",
    "run",
    "run_stream",
    # search
    "search",
    "SearchSpec",
    "SearchResult",
    "CandidateAudit",
    "run_search",
    "__version__",
]
