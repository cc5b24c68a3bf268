"""Figure 8: reduction-over-blocked distributions on 144 instances.

For every instance and algorithm the driver computes the pair
``(Jsum_X / Jsum_blocked, Jmax_X / Jmax_blocked)``; the figure plots the
distribution per algorithm with median notches (Gaussian-asymptotic 95%
CIs).  The paper's headline findings, which the reproduction checks:

* Hyperplane and Stencil Strips have significantly better median
  reduction than Nodecart on all three stencil families,
* Stencil Strips and VieM are statistically indistinguishable on the
  nearest-neighbour and component stencils.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..core import Mapper
from ..engine import Backend, EvaluationEngine
from ..metrics.cost import reduction_over_blocked
from ..metrics.stats import ConfidenceInterval, median_ci
from ..sweep import SweepSpec, run
from .context import DEFAULT_MAPPER_NAMES, STENCIL_FAMILIES
from .instances import Instance, instance_set

__all__ = [
    "figure8_sweep",
    "figure8_reductions",
    "summarize_reductions",
    "ReductionSummary",
]


@dataclass(frozen=True)
class ReductionSummary:
    """Median reductions of one algorithm over the instance set."""

    mapper: str
    jsum_median: ConfidenceInterval
    jmax_median: ConfidenceInterval
    samples: int


def figure8_sweep(
    family: str,
    *,
    mappers: Mapping[str, Mapper | str] | None = None,
    instances: Sequence[Instance] | None = None,
) -> SweepSpec:
    """The declarative Figure 8 sweep: instance set x blocked + mappers.

    The blocked baseline rides along as the first mapper of every
    instance so reductions can be computed from the one batch.
    """
    if family not in STENCIL_FAMILIES:
        raise KeyError(
            f"unknown stencil family {family!r}; available: {sorted(STENCIL_FAMILIES)}"
        )
    if mappers is not None:
        mappers = dict(mappers)
    else:
        # Registry names (not instances): the engine memoizes name-specced
        # requests by value, so repeated sweeps sharing one engine reuse
        # every permutation and cost.
        mappers = {name: name for name in DEFAULT_MAPPER_NAMES}
    mappers.pop("blocked", None)  # the baseline itself is not plotted
    instances = list(instances) if instances is not None else instance_set()
    return SweepSpec(
        instances=instances,
        stencils=[family],
        mappers=[("blocked", "blocked")] + list(mappers.items()),
    )


def figure8_reductions(
    family: str,
    *,
    mappers: Mapping[str, Mapper | str] | None = None,
    instances: Sequence[Instance] | None = None,
    engine: EvaluationEngine | None = None,
    backend: Backend | None = None,
) -> dict[str, dict[str, np.ndarray]]:
    """Reduction samples per mapper over the instance set.

    Returns ``{mapper: {"jsum": array, "jmax": array}}`` with one entry
    per instance the mapper accepted (NaN where it rejected or where the
    blocked baseline itself failed, so arrays stay aligned with the
    instance list).  Ratios follow
    :func:`repro.metrics.cost.reduction_over_blocked`: a zero blocked
    cost yields 1 when the compared cost is also zero and ``inf``
    otherwise.

    The whole sweep — every instance, the blocked baseline and every
    mapper — is one :func:`repro.sweep.run` batch: instances sharing a
    grid and stencil share cached communication edges, and each
    instance's permutations are scored as one stacked kernel call.
    Passing *backend* (e.g. a :class:`~repro.engine.ProcessBackend`, or
    a spec string like ``"process:4"``) shards the batch across its
    workers instead of running it on the (per-call) serial engine.
    """
    spec = figure8_sweep(family, mappers=mappers, instances=instances)
    instances = [inst.label for inst in spec.instances]
    names = [name for name, _ in spec.mappers if name != "blocked"]
    results = run(spec, backend=backend if backend is not None else engine)

    out = {
        name: {
            "jsum": np.full(len(instances), np.nan),
            "jmax": np.full(len(instances), np.nan),
        }
        for name in names
    }
    # Instance labels are unique by SweepSpec contract, so rows join
    # back to the instance list by label rather than index arithmetic.
    per_instance = results.group_by("instance")
    for idx, label in enumerate(instances):
        rows = per_instance[label].rows
        blocked = next(row for row in rows if row.mapper == "blocked")
        base_cost = blocked.result.cost if blocked.result is not None else None
        if base_cost is None:
            # No baseline, no ratios: those cells stay NaN — one
            # unmappable instance must not abort a 144-instance sweep.
            warnings.warn(
                f"blocked baseline failed on instance "
                f"{label}; skipping its reduction ratios",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        for row in rows:
            if row.mapper == "blocked":
                continue
            if row.result is None or row.result.cost is None:
                continue
            out[row.mapper]["jsum"][idx], out[row.mapper]["jmax"][idx] = (
                reduction_over_blocked(row.result.cost, base_cost)
            )
    return out


def summarize_reductions(
    reductions: Mapping[str, Mapping[str, np.ndarray]],
) -> list[ReductionSummary]:
    """Median + notch CI per mapper (the quantity behind Figure 8)."""
    summaries = []
    for name, series in reductions.items():
        jsum = np.asarray(series["jsum"])
        jmax = np.asarray(series["jmax"])
        ok = ~np.isnan(jsum)
        if not ok.any():
            continue
        summaries.append(
            ReductionSummary(
                mapper=name,
                jsum_median=median_ci(jsum[ok]),
                jmax_median=median_ci(jmax[ok]),
                samples=int(ok.sum()),
            )
        )
    return summaries
