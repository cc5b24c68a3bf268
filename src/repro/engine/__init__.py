"""Batched, cached evaluation of mapping instances.

The engine subsystem turns the repeated inner loop of every experiment
(communication graph -> mapper -> ``Jsum``/``Jmax``) into a batch API:

>>> from repro.engine import EvaluationEngine, MappingRequest
>>> engine = EvaluationEngine()
>>> requests = [
...     MappingRequest(grid, stencil, alloc, mapper)
...     for mapper in engine.mappers()
... ]                                                   # doctest: +SKIP
>>> results = engine.evaluate_batch(requests)           # doctest: +SKIP

Where those requests execute is pluggable (:mod:`repro.engine.backends`):

>>> from repro.engine import ProcessBackend
>>> with ProcessBackend(4, disk_cache_dir="/tmp/repro-cache") as backend:
...     for result in backend.evaluate_stream(requests):
...         consume(result)                             # doctest: +SKIP

See :mod:`repro.engine.engine` for the caching/batching design,
:mod:`repro.engine.backends` for the execution backends,
:mod:`repro.engine.diskcache` for the persistent result store, and
:mod:`repro.engine.registry` for name-based mapper discovery.
"""

from .backends import Backend, ProcessBackend, resolve_backend
from .cache import CacheStats, LRUCache
from .diskcache import CACHE_DIR_ENV, DiskCacheStats, DiskStore
from .engine import EvaluationEngine
from .metrics import (
    MetricSpec,
    list_metrics,
    register_metric,
    topology_cut_metric,
    weighted_bytes_metric,
)
from .registry import create_mapper, list_mappers, resolve_mapper
from .request import MappingRequest, MappingResult

__all__ = [
    "EvaluationEngine",
    "MappingRequest",
    "MappingResult",
    "MetricSpec",
    "register_metric",
    "list_metrics",
    "weighted_bytes_metric",
    "topology_cut_metric",
    "Backend",
    "ProcessBackend",
    "resolve_backend",
    "LRUCache",
    "CacheStats",
    "DiskStore",
    "DiskCacheStats",
    "CACHE_DIR_ENV",
    "list_mappers",
    "create_mapper",
    "resolve_mapper",
]
