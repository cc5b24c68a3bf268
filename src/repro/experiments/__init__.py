"""Drivers regenerating every table and figure of the evaluation.

Each module corresponds to one artefact of Section VI:

* :mod:`repro.experiments.figure6` / :mod:`figure7` — mapping scores and
  speedup-over-blocked series for N=50 / N=100 (Figures 6 and 7),
* :mod:`repro.experiments.figure8` — ``Jsum``/``Jmax`` reduction
  distributions over the 144-instance set (Figure 8),
* :mod:`repro.experiments.figure9` — instantiation-time comparison
  (Figure 9),
* :mod:`repro.experiments.tables` — the absolute-time appendix tables
  (Tables II–VII),
* :mod:`repro.experiments.ablations` — ablations of design choices the
  paper motivates without isolating them (split ordering, serpentine,
  distortion factors, stencil-aware Nodecart, topology-aware cost model).

The shared :class:`~repro.experiments.context.EvaluationContext` caches
mappings, edge lists and costs so multi-machine sweeps reuse the
machine-independent work.
"""

from .context import DEFAULT_MAPPERS, EvaluationContext, STENCIL_FAMILIES
from .instances import Instance, instance_set
from .figure6 import figure6_scores, figure6_speedups, figure6_sweep
from .figure7 import figure7_scores, figure7_speedups, figure7_sweep
from .figure8 import figure8_reductions, figure8_sweep, summarize_reductions
from .figure9 import figure9_instantiation_times, figure9_sweep
from .tables import TABLE_MESSAGE_SIZES, appendix_table
from .throughput import mapping_results, measure_times, speedup_series
from .weighted import weighted_sweep
from .ablations import (
    ablation_hyperplane_order,
    ablation_nodecart_stencil_aware,
    ablation_strips_distortion,
    ablation_strips_serpentine,
    ablation_topology_aware,
)
from .scaling import DEFAULT_NODE_COUNTS, ScalingPoint, scaling_sweep, speedup_ratio
from .weighted import WeightedResult, weighted_hops_experiment

__all__ = [
    "EvaluationContext",
    "DEFAULT_MAPPERS",
    "STENCIL_FAMILIES",
    "Instance",
    "instance_set",
    "figure6_scores",
    "figure6_speedups",
    "figure6_sweep",
    "figure7_scores",
    "figure7_speedups",
    "figure7_sweep",
    "figure8_reductions",
    "figure8_sweep",
    "summarize_reductions",
    "figure9_instantiation_times",
    "figure9_sweep",
    "appendix_table",
    "TABLE_MESSAGE_SIZES",
    "mapping_results",
    "measure_times",
    "speedup_series",
    "weighted_sweep",
    "ablation_hyperplane_order",
    "ablation_strips_serpentine",
    "ablation_strips_distortion",
    "ablation_nodecart_stencil_aware",
    "ablation_topology_aware",
    "ScalingPoint",
    "scaling_sweep",
    "speedup_ratio",
    "DEFAULT_NODE_COUNTS",
    "WeightedResult",
    "weighted_hops_experiment",
]
