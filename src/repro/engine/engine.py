"""The batched mapping-evaluation engine.

Every experiment in the paper reduces to the same inner loop — build a
stencil communication graph, run a mapper, score the permutation with
``Jsum``/``Jmax``.  :class:`EvaluationEngine` is the shared executor of
that loop:

* **memoization** — communication-edge arrays (keyed by the grid and
  stencil) plus computed permutations and costs (keyed by instance and
  mapper spec) live behind LRU caches, so sweeps that revisit the same
  instances never recompute the expensive intermediates; with a cache
  directory, whole result cells persist in the result store that
  process workers and service daemons share
  (:mod:`repro.engine.diskcache`);
* **batching** — all permutations of one instance are scored as a single
  stacked NumPy operation (:func:`repro.metrics.cost.evaluate_mappings_batch`)
  instead of one pass per mapping.

The engine evaluates a batch's instances one after another, in the
calling thread, and is itself the in-process backend (``"serial"``).
Parallelism comes from sharding the request list, and any alternative
backend only has to honour the ``MappingRequest -> MappingResult``
contract: :mod:`repro.engine.backends` builds on that seam —
``ProcessBackend`` shards request lists across worker processes, each
running its own engine warmed through the shared result store.  Threads
may still share one engine: its caches are thread-safe, though two
threads that miss one entry at once may both compute it.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..core import Mapper
from ..exceptions import MappingError
from ..grid.graph import communication_edges, communication_edges_by_offset
from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil
from ..hardware.allocation import NodeAllocation
from ..kernels import evaluate_mappings_batch
from ..metrics.cost import MappingCost, check_permutation
from .cache import CacheStats, LRUCache
from .diskcache import DiskCacheStats, DiskStore, cell_key, resolve_cache_dir
from .metrics import MetricContext, MetricSpec, resolve_metric
from .registry import list_mappers, resolve_mapper, spec_key
from .request import MappingRequest, MappingResult, group_by_instance, rebuild_result

__all__ = ["EvaluationEngine"]

#: Metric value types a result cell carries as they are.
_PLAIN_VALUES = frozenset((type(None), bool, int, float, str))


def _plain_metric_row(row) -> dict:
    """*row* (a mapping of metric columns) as a dict of plain values.

    NumPy bool, integer, floating and string scalars (and subclasses of
    the plain types) become ``bool``, ``int``, ``float`` and ``str``;
    any other value, or a column name that is not a ``str``, raises
    :class:`MappingError` naming the column and the type.  So every
    row's values are ones a result cell stores and a service worker
    sends exactly, and every backend shows the same row.
    """
    row = dict(row)
    for name, value in row.items():
        if type(value) in _PLAIN_VALUES and type(name) is str:
            continue
        if type(name) is not str:
            raise MappingError(f"column name {name!r} is not a str")
        if isinstance(value, (bool, np.bool_)):
            row[name] = bool(value)
        elif isinstance(value, (int, np.integer)):
            row[name] = int(value)
        elif isinstance(value, (float, np.floating)):
            row[name] = float(value)
        elif isinstance(value, str):  # np.str_ too
            row[name] = str(value)
        else:
            raise MappingError(
                f"column {name!r} holds a {type(value).__name__}, not a "
                f"bool, int, float or str"
            )
    return row


class EvaluationEngine:
    """Caching, batching, in-process executor of mapping evaluations.

    Parameters
    ----------
    max_workers:
        Accepted as ``None`` or ``1`` only: the engine runs in the
        calling thread.  Any other value raises ``ValueError``; a
        parallel run shards across processes (``"process:N"``).
    edge_cache_entries / perm_cache_entries / cost_cache_entries:
        Capacities of the three LRU caches.  Edge arrays are the large
        ones (``O(k * p)`` int64 per entry); permutations and costs are
        small but numerous.  (Rank-to-node arrays need no engine cache:
        :class:`NodeAllocation` precomputes them at construction.)
    disk_cache_dir:
        Directory of the result store shared across processes and
        restarts (see :mod:`repro.engine.diskcache`): whole ``(perm,
        cost, error, metrics)`` cells that service daemons read and
        write too.  The store sits behind the in-memory LRUs: a request
        whose permutation the engine already holds never touches disk.
        Defaults to the ``REPRO_CACHE_DIR`` environment variable; with
        neither set the disk layer is disabled.

    The engine holds no worker pool, so :meth:`close` (and use as a
    context manager, as every :class:`~repro.engine.backends.Backend`
    allows) releases nothing and leaves the caches usable.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        edge_cache_entries: int = 128,
        perm_cache_entries: int = 2048,
        cost_cache_entries: int = 4096,
        disk_cache_dir: str | os.PathLike | None = None,
    ):
        if max_workers not in (None, 1):
            raise ValueError(
                "EvaluationEngine runs in the calling thread (max_workers=1), "
                f"got max_workers={max_workers!r}; shard across worker "
                "processes with the 'process:N' backend instead"
            )
        self._edge_cache = LRUCache(edge_cache_entries)
        self._perm_cache = LRUCache(perm_cache_entries)
        self._cost_cache = LRUCache(cost_cache_entries)
        self._metric_cache = LRUCache(cost_cache_entries)
        cache_dir = resolve_cache_dir(disk_cache_dir)
        self._result_store = None if cache_dir is None else DiskStore(cache_dir)

    def close(self) -> None:
        """Nothing to release: the engine holds no pool (caches stay usable)."""

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Cached intermediates
    # ------------------------------------------------------------------
    def edges(self, grid: CartesianGrid, stencil: Stencil) -> np.ndarray:
        """Directed communication edges, memoized by ``(grid, stencil)``.

        The key hashes the grid's dimensions and periodicity plus the
        stencil's offset set, so structurally equal instances share one
        entry regardless of object identity.  Returned arrays are
        read-only: every caller shares the cached buffer.
        """

        def compute() -> np.ndarray:
            arr = communication_edges(grid, stencil)
            arr.setflags(write=False)
            return arr

        return self._edge_cache.get_or_compute((grid, stencil), compute)

    def edges_by_offset(
        self, grid: CartesianGrid, stencil: Stencil
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(edges, offset_index)`` pair for offset-weighted metrics.

        Memoized in the edge cache under a distinct key; both arrays are
        read-only shared buffers.
        """

        def compute() -> tuple[np.ndarray, np.ndarray]:
            edges, offset_index = communication_edges_by_offset(grid, stencil)
            edges.setflags(write=False)
            offset_index.setflags(write=False)
            return edges, offset_index

        return self._edge_cache.get_or_compute(
            (grid, stencil, "by_offset"), compute
        )

    def workload_edges(self, workload) -> np.ndarray:
        """Communication edges of a workload, memoized by its cache key.

        The workload analogue of :meth:`edges` for requests whose
        communication graph is not a grid x stencil product (stencil
        programs, general graphs).  Returned arrays are read-only
        shared buffers.
        """

        def compute() -> np.ndarray:
            arr = np.ascontiguousarray(workload.comm_edges(), dtype=np.int64)
            arr.setflags(write=False)
            return arr

        return self._edge_cache.get_or_compute(
            ("workload", workload.cache_key()), compute
        )

    def permutation(
        self,
        grid: CartesianGrid,
        stencil: Stencil,
        alloc: NodeAllocation,
        mapper: str | Mapper,
    ) -> tuple[np.ndarray | None, str | None]:
        """Run (or recall) a mapper on an instance.

        Returns ``(perm, None)`` on success and ``(None, message)`` when
        the mapper rejects the instance; rejections are memoized too, so
        a sweep pays for each "not applicable" cell once.  Permutations
        come back read-only: every caller shares the cached buffer.
        """
        return self._mapped(
            (grid, stencil, alloc, spec_key(mapper)),
            lambda: resolve_mapper(mapper).map_ranks(grid, stencil, alloc),
        )

    def workload_permutation(
        self,
        workload,
        alloc: NodeAllocation,
        mapper: str | Mapper,
    ) -> tuple[np.ndarray | None, str | None]:
        """Run (or recall) a mapper on a workload instance.

        The workload counterpart of :meth:`permutation`: same
        ``(perm, None)`` / ``(None, message)`` contract, same rejection
        memoization.  Dispatches through
        :meth:`~repro.core.Mapper.map_workload`, so Cartesian-structured
        workloads reach the classic ``map_ranks`` and raw-graph mappers
        get the full weighted edge multiset.
        """
        return self._mapped(
            ("workload", workload.cache_key(), alloc, spec_key(mapper)),
            lambda: resolve_mapper(mapper).map_workload(workload, alloc),
        )

    def _mapped(self, key: tuple, run) -> tuple[np.ndarray | None, str | None]:
        """The memoized ``(perm, error)`` of ``run()`` under *key*."""

        def compute() -> tuple[np.ndarray | None, str | None]:
            try:
                perm = run()
            except MappingError as exc:
                return None, str(exc)
            perm.setflags(write=False)
            return perm, None

        return self._perm_cache.get_or_compute(key, compute)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: MappingRequest) -> MappingResult:
        """Evaluate a single request (a batch of one)."""
        return self.evaluate_batch([request])[0]

    def evaluate_batch(
        self, requests: Iterable[MappingRequest]
    ) -> list[MappingResult]:
        """Evaluate a batch of requests, returned in input order.

        Requests are grouped by evaluation instance; each group shares
        one cached edge array and one cached rank-to-node array, scores
        all its distinct permutations as one stacked kernel call, and
        duplicate ``(instance, mapper)`` requests are computed once.
        """
        requests = list(requests)
        results: list[MappingResult | None] = [None] * len(requests)
        for indices, group in self._groups(requests):
            for i, result in zip(indices, group):
                results[i] = result
        return results  # type: ignore[return-value]  # every slot is filled

    def evaluate_stream(
        self, requests: Iterable[MappingRequest]
    ) -> Iterator[MappingResult]:
        """Evaluate a batch, yielding results as instance groups finish.

        The streaming counterpart of :meth:`evaluate_batch`: the same
        grouping and caching, but each instance group's results are
        yielded as soon as that group is scored instead of barriering on
        the whole batch.  Groups run in order of their first request,
        and results of one group keep their relative request order.
        Closing the generator early leaves the remaining groups
        unevaluated.
        """
        for _, group in self._groups(list(requests)):
            yield from group

    def _groups(
        self, requests: Sequence[MappingRequest]
    ) -> Iterator[tuple[list[int], list[MappingResult]]]:
        """Evaluate *requests* one instance group at a time, yielding
        each group's request indices with its results."""
        for indices in group_by_instance(requests).values():
            yield indices, self._evaluate_group([requests[i] for i in indices])

    def _evaluate_group(
        self, requests: Sequence[MappingRequest]
    ) -> list[MappingResult]:
        """Evaluate requests sharing one instance key.

        An instance is either a Cartesian ``(grid, stencil, alloc)``
        triple or a ``(workload, alloc)`` pair; ``mem_base`` spells it
        as the prefix of the permutation/cost/metric LRU keys.  With a
        result store, the store sits behind the permutation LRU: a
        request whose permutation is not in memory looks up its cell
        before any mapper runs.  A hit answers the request and seeds
        the permutation and cost LRUs; every cell computed after a miss
        is published for other engines and daemons.
        """
        first = requests[0]
        workload = first.effective_workload
        if workload is not None:
            mem_base: tuple = ("workload", workload.cache_key(), first.alloc)
        else:
            mem_base = (first.grid, first.stencil, first.alloc)
        if self._result_store is None:
            return self._compute_group(requests, workload, mem_base, {})
        results: list[MappingResult | None] = [None] * len(requests)
        held: dict[object, tuple] = {}  # mapper spec -> (perm, error)
        cells: dict[int, tuple] = {}  # request index -> cell loaded for it
        computed: dict[str, int] = {}  # cell key -> request index computing it
        todo: list[int] = []
        for i, request in enumerate(requests):
            spec = None if request.perm is not None else spec_key(request.mapper)
            if spec is None or spec in held:
                todo.append(i)
                continue

            def load_or_map(i=i, request=request) -> np.ndarray:
                key = cell_key(request)
                cell = None if key is None else self._result_store.load(key)
                if cell is None:
                    if key is not None:
                        computed[key] = i
                    mapper = resolve_mapper(request.mapper)
                    if workload is not None:
                        return mapper.map_workload(workload, first.alloc)
                    return mapper.map_ranks(first.grid, first.stencil, first.alloc)
                cells[i] = cell
                if cell[0] is None:
                    raise MappingError(cell[2])  # memoized as the rejection
                return cell[0]

            held[spec] = self._mapped(mem_base + (spec,), load_or_map)
            cell = cells.get(i)
            if cell is None:
                todo.append(i)
                continue
            results[i] = rebuild_result(request, *cell)
            if cell[1] is not None:
                self._cost_cache.put(mem_base + (spec,), cell[1])
        if todo:
            fresh = self._compute_group(
                [requests[i] for i in todo], workload, mem_base, held
            )
            for i, result in zip(todo, fresh):
                results[i] = result
            for key, i in computed.items():
                result = results[i]
                self._result_store.store(
                    key, (result.perm, result.cost, result.error, result.metrics)
                )
        return results  # type: ignore[return-value]  # every slot is filled

    def _compute_group(
        self,
        requests: Sequence[MappingRequest],
        workload,
        mem_base: tuple,
        held: dict[object, tuple],
    ) -> list[MappingResult]:
        """Evaluate requests sharing one instance key, without the store.

        Both instance kinds share the same dedupe/stack/score
        structure, differing only in where the edge array and the
        permutations come from and in how the cache keys are spelled.
        *held* maps mapper specs to ``(perm, error)`` pairs already
        taken from the permutation LRU.
        """
        first = requests[0]
        grid, stencil, alloc = first.grid, first.stencil, first.alloc
        if workload is not None:
            edges = self.workload_edges(workload)
        else:
            edges = self.edges(grid, stencil)
        num_processes = first.num_processes

        # Deduplicate: one permutation/score per distinct mapper spec
        # (or per distinct explicit perm), fanned back out afterwards.
        keys: list[object] = [
            ("explicit-perm", id(request.perm))
            if request.perm is not None
            else spec_key(request.mapper)
            for request in requests
        ]
        slots: dict[object, list[int]] = {}
        for i, key in enumerate(keys):
            slots.setdefault(key, []).append(i)

        perm_by_key: dict[object, np.ndarray] = {}
        costs: dict[object, MappingCost] = {}
        failures: dict[object, str] = {}
        to_score: list[object] = []
        for key, indices in slots.items():
            request = requests[indices[0]]
            if request.perm is not None:
                # validate here so one malformed explicit perm becomes a
                # per-request error instead of aborting the whole batch
                try:
                    perm, error = (
                        check_permutation(request.perm, num_processes),
                        None,
                    )
                except MappingError as exc:
                    perm, error = None, str(exc)
            elif key in held:
                perm, error = held[key]
            elif workload is not None:
                perm, error = self.workload_permutation(
                    workload, alloc, request.mapper
                )
            else:
                perm, error = self.permutation(
                    grid, stencil, alloc, request.mapper
                )
            if perm is None:
                failures[key] = error or "mapper rejected the instance"
                continue
            perm_by_key[key] = perm
            # Memoized costs only apply to mapper-spec requests: explicit
            # perms are keyed by object identity, which gc can recycle.
            if request.perm is None:
                cached = self._cost_cache.get(mem_base + (key,))
                if cached is not None:
                    costs[key] = cached
                    continue
            to_score.append(key)

        if to_score:
            batch = evaluate_mappings_batch(
                None if workload is not None else grid,
                None if workload is not None else stencil,
                np.stack([perm_by_key[key] for key in to_score]),
                alloc,
                edges=edges,
            )
            for key, cost in zip(to_score, batch):
                # shared across every future cache hit -> freeze the buffer
                cost.per_node.setflags(write=False)
                costs[key] = cost
                if requests[slots[key][0]].perm is None:
                    self._cost_cache.put(mem_base + (key,), cost)
        metric_values, metric_errors = self._group_metrics(
            requests,
            slots,
            failures,
            perm_by_key,
            MetricContext(self, grid, stencil, alloc, edges, workload=workload),
            mem_base,
        )
        results: list[MappingResult] = []
        for request, key in zip(requests, keys):
            if key in failures:
                results.append(
                    MappingResult(request=request, perm=None, error=failures[key])
                )
                continue
            metrics: dict[str, float] = {}
            failed: list[str] = []
            for spec in request.metrics:
                # a cached value beats a same-spec failure elsewhere in
                # the group: only cells whose own computation failed err
                value = metric_values.get((key, spec))
                if value is not None:
                    metrics.update(value)
                else:
                    failed.append(metric_errors[spec])
            error: str | None = "; ".join(failed) if failed else None
            results.append(
                MappingResult(
                    request=request,
                    perm=perm_by_key[key],
                    cost=costs[key],
                    error=error,
                    metrics=metrics,
                )
            )
        return results

    def _group_metrics(
        self,
        requests: Sequence[MappingRequest],
        slots: dict[object, list[int]],
        failures: dict[object, str],
        perm_by_key: dict[object, np.ndarray],
        ctx: MetricContext,
        mem_base: tuple,
    ) -> tuple[dict[tuple, dict[str, float]], dict[MetricSpec, str]]:
        """Compute the group's extra metrics, batch-level per spec.

        Every distinct permutation wanting a metric is stacked into one
        call of the metric implementation; mapper-spec permutations are
        memoized like costs (explicit perms are identity-keyed and not
        cached).  ``mem_base`` is the group's instance cache-key prefix —
        ``(grid, stencil, alloc)`` or ``("workload", cache_key, alloc)``
        — so different workloads sharing a ``None`` grid never collide.
        A failing metric poisons only the cells that requested it — the
        failure message lands on those results' ``error`` — so one bad
        metric spec cannot crash a whole sweep.
        """
        wanted: dict[MetricSpec, dict[object, None]] = {}
        for key, indices in slots.items():
            if key in failures:
                continue
            for i in indices:
                for spec in requests[i].metrics:
                    wanted.setdefault(spec, {})[key] = None

        values: dict[tuple, dict[str, float]] = {}
        errors: dict[MetricSpec, str] = {}
        for spec, keyset in wanted.items():
            to_compute: list[object] = []
            for key in keyset:
                if requests[slots[key][0]].perm is None:
                    cached = self._metric_cache.get(mem_base + (key, spec))
                    if cached is not None:
                        values[(key, spec)] = cached
                        continue
                to_compute.append(key)
            if not to_compute:
                continue
            try:
                rows = resolve_metric(spec.name)(
                    ctx, np.stack([perm_by_key[k] for k in to_compute]), spec
                )
                if len(rows) != len(to_compute):
                    raise MappingError(
                        f"returned {len(rows)} rows for "
                        f"{len(to_compute)} permutations"
                    )
                # normalise inside the try: a malformed row (not a
                # mapping of plain columns) is this metric's failure,
                # not a batch abort
                rows = [_plain_metric_row(row) for row in rows]
            except Exception as exc:  # noqa: BLE001 - becomes a cell error
                errors[spec] = f"metric {spec.name!r} failed: {exc}"
                continue
            for key, row in zip(to_compute, rows):
                values[(key, spec)] = row
                if requests[slots[key][0]].perm is None:
                    self._metric_cache.put(mem_base + (key, spec), row)
        return values, errors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def mappers() -> tuple[str, ...]:
        """Registry names accepted as a request's ``mapper`` spec."""
        return list_mappers()

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss/occupancy counters of the engine's LRU caches."""
        return {
            "edges": self._edge_cache.stats(),
            "permutations": self._perm_cache.stats(),
            "costs": self._cost_cache.stats(),
            "metrics": self._metric_cache.stats(),
        }

    def disk_store_stats(self) -> dict[str, DiskCacheStats]:
        """Counters of the result store, keyed by its kind ``result``.

        Empty when the disk layer is disabled.  The counters carry the
        ``corrupt`` count of unreadable entries.
        """
        if self._result_store is None:
            return {}
        return {self._result_store.kind: self._result_store.stats()}

    def clear_caches(self) -> None:
        """Drop every cached intermediate (counters are kept)."""
        self._edge_cache.clear()
        self._perm_cache.clear()
        self._cost_cache.clear()
        self._metric_cache.clear()

    def __repr__(self) -> str:
        stats = self.cache_stats()
        return (
            f"EvaluationEngine(edges={stats['edges'].size}, "
            f"perms={stats['permutations'].size})"
        )
