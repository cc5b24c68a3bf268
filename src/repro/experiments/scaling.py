"""Extension experiment E17: scaling of the mapping advantage.

The paper evaluates two node counts (50 and 100) and concludes that the
advantage persists; this extension sweeps node counts to chart the
trend: ``Jmax`` reduction and model speedup versus the number of nodes
at a fixed 48 processes per node (weak scaling of the process grid).

Not a paper figure: an extension beyond the paper's two node counts,
run by the ``scaling`` verb (README, "The command line").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core import Mapper
from ..engine import Backend, EvaluationEngine
from ..exceptions import AllocationError
from ..hardware.machines import Machine
from ..metrics.cost import reduction_over_blocked
from ..sweep import InstanceSpec, SweepSpec, run
from .context import DEFAULT_MAPPER_NAMES, STENCIL_FAMILIES
from .throughput import resolve_machine

__all__ = ["ScalingPoint", "scaling_sweep", "speedup_ratio", "DEFAULT_NODE_COUNTS"]

#: Node counts of the sweep (the paper's 50 and 100 plus surroundings).
DEFAULT_NODE_COUNTS: tuple[int, ...] = (10, 25, 50, 75, 100, 150)


@dataclass(frozen=True)
class ScalingPoint:
    """One (node count, mapper) sample of the sweep."""

    num_nodes: int
    mapper: str
    jsum: int
    jmax: int
    jsum_reduction: float
    jmax_reduction: float
    model_speedup: float


def speedup_ratio(baseline_time: float, t: float) -> float:
    """Model speedup ``baseline / t`` with explicit zero semantics.

    A zero *t* means the mapping eliminated modelled communication
    entirely: the speedup is ``inf`` unless the baseline is also zero
    (no communication to speed up), which is a tie at 1.
    """
    if t == 0:
        return 1.0 if baseline_time == 0 else float("inf")
    return baseline_time / t


def scaling_sweep(
    machine: str | Machine = "VSC4",
    *,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    family: str = "nearest_neighbor",
    message_size: int = 262144,
    mappers: dict[str, Mapper | str] | None = None,
    processes_per_node: int = 48,
    engine: EvaluationEngine | None = None,
    backend: Backend | None = None,
) -> dict[str, list[ScalingPoint]]:
    """Sweep node counts; reductions and model speedups per mapper.

    Every node count must fit on *machine*: sweeping past
    ``machine.total_nodes`` raises :class:`AllocationError` instead of
    silently timing a model smaller than the evaluated grid.

    The whole sweep is one request batch.  With the default in-process
    *engine*, per-node-count instances share its caches across repeated
    sweeps (e.g. one per machine); passing *backend* shards the batch
    across its workers (e.g. a :class:`~repro.engine.ProcessBackend`).
    """
    machine = resolve_machine(machine)
    if family not in STENCIL_FAMILIES:
        raise KeyError(
            f"unknown stencil family {family!r}; available: {sorted(STENCIL_FAMILIES)}"
        )
    oversized = [n for n in node_counts if n > machine.total_nodes]
    if oversized:
        raise AllocationError(
            f"{machine.name} has {machine.total_nodes} nodes; cannot sweep "
            f"node counts {oversized} (the model would cover fewer nodes "
            f"than the evaluated grid)"
        )
    if engine is None:
        # an engine passed as the backend shares its caches with the
        # model-time loop; any other backend gets a private one for it
        engine = (
            backend if isinstance(backend, EvaluationEngine) else EvaluationEngine()
        )
    if mappers is None:
        # registry names -> engine memoizes by value across sweeps
        mappers = {name: name for name in DEFAULT_MAPPER_NAMES}
        mappers.pop("random", None)
        mappers.pop("graphmap", None)  # keep the sweep fast by default
    baseline_spec = mappers.get("blocked", "blocked")
    out: dict[str, list[ScalingPoint]] = {
        name: [] for name in mappers if name != "blocked"
    }

    stencil = STENCIL_FAMILIES[family](2)
    spec = SweepSpec(
        instances=[
            InstanceSpec.from_nodes(num_nodes, processes_per_node)
            for num_nodes in node_counts
        ],
        stencils=[(family, stencil)],
        mappers=[("blocked", baseline_spec)]
        + [(name, mappers[name]) for name in out],
    )
    results = run(spec, backend=backend if backend is not None else engine)

    # Instance labels are unique by SweepSpec contract, so rows join
    # back to the node counts by label rather than index arithmetic.
    per_instance = results.group_by("instance")
    for instance in spec.instances:
        num_nodes = dict(instance.params)["num_nodes"]
        grid, alloc = instance.grid, instance.alloc
        rows = per_instance[instance.label].rows
        blocked = next(row for row in rows if row.mapper == "blocked")
        if not blocked.ok:
            raise AllocationError(
                f"blocked baseline failed on {num_nodes} nodes: {blocked.error}"
            )
        # The model times are machine-bound and cheap; they stay in the
        # parent process on top of the batch-evaluated mappings.
        model = machine.model(num_nodes)
        edges = engine.edges(grid, stencil)
        blocked_time = model.alltoall_time(
            grid, stencil, blocked.result.perm, alloc, message_size, edges=edges
        )
        for row in rows:
            if row.mapper == "blocked" or not row.ok:
                continue
            result = row.result
            t = model.alltoall_time(
                grid, stencil, result.perm, alloc, message_size, edges=edges
            )
            jsum_red, jmax_red = reduction_over_blocked(
                result.cost, blocked.result.cost
            )
            out[row.mapper].append(
                ScalingPoint(
                    num_nodes=num_nodes,
                    mapper=row.mapper,
                    jsum=result.cost.jsum,
                    jmax=result.cost.jmax,
                    jsum_reduction=jsum_red,
                    jmax_reduction=jmax_red,
                    model_speedup=speedup_ratio(blocked_time, t),
                )
            )
    return out
