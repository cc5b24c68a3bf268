"""Ablation studies of the paper's design choices.

The paper motivates several ingredients without isolating them; these
drivers quantify each one on the Figure 6 instance (N=50, grid 50 x 48):

* Equation 2 dimension ordering in Hyperplane,
* serpentine strip direction flipping in Stencil Strips (Figure 5),
* stencil distortion factors in Stencil Strips,
* nearest-neighbour-only block selection in Nodecart (the paper's
  faithful variant) versus a stencil-aware extension,
* the homogeneous-network assumption of the cost model versus
  topology-aware up-link contention.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import HyperplaneMapper, NodecartMapper, StencilStripsMapper
from ..engine import Backend
from ..hardware.machines import Machine
from ..sweep import InstanceSpec, SweepSpec, run
from .context import EvaluationContext, STENCIL_FAMILIES
from .throughput import resolve_machine

__all__ = [
    "AblationResult",
    "ablation_hyperplane_order",
    "ablation_strips_serpentine",
    "ablation_strips_distortion",
    "ablation_nodecart_stencil_aware",
    "ablation_topology_aware",
]


@dataclass(frozen=True)
class AblationResult:
    """Scores of a mapper variant pair on one stencil family."""

    family: str
    baseline: tuple[int, int]
    variant: tuple[int, int]

    @property
    def jsum_ratio(self) -> float:
        """``variant Jsum / baseline Jsum`` (>1 means the variant is worse)."""
        return self.variant[0] / self.baseline[0] if self.baseline[0] else 1.0

    @property
    def jmax_ratio(self) -> float:
        """``variant Jmax / baseline Jmax``."""
        return self.variant[1] / self.baseline[1] if self.baseline[1] else 1.0


def _compare(
    num_nodes: int, baseline, variant, backend: Backend | None = None
) -> dict[str, AblationResult]:
    # One sweep over all families and both variants; *backend* shards it
    # across its workers, the default runs on a private serial engine
    # inside repro.sweep.run.
    spec = SweepSpec(
        instances=[InstanceSpec.from_nodes(num_nodes, 48, 2)],
        stencils=list(STENCIL_FAMILIES),
        mappers=[("baseline", baseline), ("variant", variant)],
    )
    results = run(spec, backend=backend)
    scores = results.pivot(index="stencil", columns="mapper", values="jsum")
    maxes = results.pivot(index="stencil", columns="mapper", values="jmax")
    out: dict[str, AblationResult] = {}
    for family in STENCIL_FAMILIES:
        base = (scores[family]["baseline"], maxes[family]["baseline"])
        var = (scores[family]["variant"], maxes[family]["variant"])
        if None in base or None in var:
            continue
        out[family] = AblationResult(family=family, baseline=base, variant=var)
    return out


def ablation_hyperplane_order(
    num_nodes: int = 50, *, backend: Backend | None = None
) -> dict[str, AblationResult]:
    """Hyperplane with versus without the Equation 2 dimension ordering."""
    return _compare(
        num_nodes,
        HyperplaneMapper(),
        HyperplaneMapper(use_stencil_order=False),
        backend,
    )


def ablation_strips_serpentine(
    num_nodes: int = 50, *, backend: Backend | None = None
) -> dict[str, AblationResult]:
    """Stencil Strips with versus without serpentine direction flipping."""
    return _compare(
        num_nodes,
        StencilStripsMapper(),
        StencilStripsMapper(serpentine=False),
        backend,
    )


def ablation_strips_distortion(
    num_nodes: int = 50, *, backend: Backend | None = None
) -> dict[str, AblationResult]:
    """Stencil Strips with versus without the distortion factors."""
    return _compare(
        num_nodes,
        StencilStripsMapper(),
        StencilStripsMapper(use_distortion=False),
        backend,
    )


def ablation_nodecart_stencil_aware(
    num_nodes: int = 50, *, backend: Backend | None = None
) -> dict[str, AblationResult]:
    """Faithful Nodecart versus the stencil-aware block-selection extension."""
    return _compare(
        num_nodes,
        NodecartMapper(),
        NodecartMapper(stencil_aware=True),
        backend,
    )


def ablation_topology_aware(
    machine: str | Machine = "VSC4",
    num_nodes: int = 50,
    *,
    family: str = "nearest_neighbor",
    message_size: int = 524288,
) -> dict[str, dict[str, float]]:
    """Model times with and without leaf-up-link contention.

    Returns ``{mapper: {"flat": seconds, "topology_aware": seconds}}`` for
    the blocked and hyperplane mappings — quantifying how much the
    paper's homogeneity assumption (Section II) changes the picture.
    """
    machine = resolve_machine(machine)
    context = EvaluationContext(num_nodes, 48, 2)
    stencil = context.stencil(family)
    edges = context.edges(family)
    out: dict[str, dict[str, float]] = {}
    for mapper_name in ("blocked", "hyperplane"):
        perm = context.mapping(family, mapper_name)
        assert perm is not None
        times = {}
        for aware in (False, True):
            model = machine.model(num_nodes, topology_aware=aware)
            times["topology_aware" if aware else "flat"] = model.alltoall_time(
                context.grid, stencil, perm, context.alloc, message_size, edges=edges
            )
        out[mapper_name] = times
    return out
