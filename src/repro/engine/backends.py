"""Pluggable execution backends for mapping-evaluation sweeps.

The :class:`~repro.engine.EvaluationEngine` defines the unit of work —
``MappingRequest -> MappingResult`` — and this module defines *where*
those units run:

* :class:`~repro.engine.EvaluationEngine` itself — the in-process
  backend and the default (``"serial"``): one engine evaluating the
  batch in the calling thread.  Cheapest for warm-cache sweeps because
  every request shares one set of in-memory caches.
* :class:`ProcessBackend` — shards the request list across worker
  processes.  Requests and results cross the process boundary by value;
  each worker owns a private engine whose caches warm independently, so
  shards are grouped by evaluation instance before being dealt out
  (requests sharing a grid and stencil land in one shard and hit one
  worker's caches).  Each worker builds its own edge arrays; pointing
  the backend at a ``disk_cache_dir`` lets all workers share one
  persistent result store, so a cell any of them computed is answered
  to the others.
* :class:`~repro.service.ServiceBackend` (:mod:`repro.service`) — the
  multi-host tier: the same instance-aligned shards travel over TCP
  sockets to a standing service daemon, whose workers pull them from a
  work-stealing queue.

All backends implement the same protocol: ``evaluate_batch`` (results
in input order), ``evaluate_stream`` (results yielded as shards
complete), ``close`` and use as a context manager.  Experiment drivers
accept a backend wherever they accept an engine, and the CLI exposes a
compact spec syntax via :func:`resolve_backend` — ``"serial"``,
``"process"``, ``"process:4"``, ``"service:host:port"``.

Caller payloads (``MappingRequest.tag``) never cross the process
boundary: the parent rebuilds every result against its original request
object, so tags may be arbitrary unpicklable values and result identity
joins (``result.request is request``) keep working under every backend.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Protocol, runtime_checkable

import numpy as np

from ..metrics.cost import MappingCost
from .engine import EvaluationEngine
from .request import MappingRequest, MappingResult, group_by_instance, rebuild_result

__all__ = [
    "Backend",
    "ProcessBackend",
    "resolve_backend",
    "instance_aligned_shards",
    "shard_payloads",
    "strip_request_tag",
    "rebuild_result",
    "rebuild_batch",
    "rebuild_stream",
]


def instance_aligned_shards(
    requests: Sequence[MappingRequest], max_shards: int
) -> list[list[tuple[int, MappingRequest]]]:
    """Deal a request list into instance-aligned shards.

    Requests are grouped by evaluation instance first — splitting an
    instance's requests across workers would recompute its edges and
    forfeit the stacked-kernel batching — then groups are packed onto
    shards largest-first (greedy LPT), so one huge instance cannot
    straggle behind a shard also holding many small ones.  At most
    *max_shards* shards are produced; empty shards are dropped.  Each
    shard entry is ``(original_index, request)``.
    """
    if max_shards < 1:
        raise ValueError(f"max_shards must be >= 1, got {max_shards}")
    groups = group_by_instance(requests)
    num_shards = max(1, min(len(groups), max_shards))
    shards: list[list[tuple[int, MappingRequest]]] = [
        [] for _ in range(num_shards)
    ]
    loads = [0] * num_shards
    for indices in sorted(groups.values(), key=len, reverse=True):
        target = loads.index(min(loads))
        shards[target].extend((i, requests[i]) for i in indices)
        loads[target] += len(indices)
    return [shard for shard in shards if shard]


def strip_request_tag(request: MappingRequest) -> MappingRequest:
    """The request without its ``tag`` payload.

    Tags may be arbitrary unpicklable values and are never needed on the
    worker side of a process or socket boundary; the parent rejoins
    results to the original (tagged) requests by index.  The copy is not
    re-validated: validation never reads the tag.
    """
    if request.tag is None:
        return request
    return request._with_mapper_and_tag(request.mapper, None)


def shard_payloads(
    requests: Sequence[MappingRequest], max_shards: int
) -> list[list[tuple[int, MappingRequest]]]:
    """Instance-aligned shards of *requests*, tags stripped for the wire."""
    return [
        [(i, strip_request_tag(request)) for i, request in shard]
        for shard in instance_aligned_shards(requests, max_shards)
    ]


def rebuild_batch(
    requests: Sequence[MappingRequest], payloads: Iterable[list]
) -> list[MappingResult]:
    """Rebuild completed shard payloads into input-order results.

    Each payload is one shard's ``(index, perm, cost, error, metrics)``
    rows; together they must cover every request index exactly once
    (the wire tiers' contract).
    """
    out: list[MappingResult | None] = [None] * len(requests)
    for payload in payloads:
        for index, perm, cost, error, metrics in payload:
            out[index] = rebuild_result(requests[index], perm, cost, error, metrics)
    return out  # type: ignore[return-value]  # every slot is filled


def rebuild_stream(
    requests: Sequence[MappingRequest], payloads: Iterable[list]
) -> Iterator[MappingResult]:
    """Rebuild shard payloads into results as they complete.

    Closing the generator early closes *payloads* (the wire tiers'
    shard iterators withdraw their job's remaining work on close).
    """
    try:
        for payload in payloads:
            for index, perm, cost, error, metrics in payload:
                yield rebuild_result(requests[index], perm, cost, error, metrics)
    finally:
        close = getattr(payloads, "close", None)
        if close is not None:
            close()


@runtime_checkable
class Backend(Protocol):
    """Execution strategy honouring the request/result contract."""

    def evaluate_batch(
        self, requests: Iterable[MappingRequest]
    ) -> list[MappingResult]:
        """Evaluate a batch of requests, returned in input order."""
        ...

    def evaluate_stream(
        self, requests: Iterable[MappingRequest]
    ) -> Iterator[MappingResult]:
        """Evaluate a batch, yielding results as shards complete."""
        ...

    def close(self) -> None:
        """Release worker pools; the backend must not be used after."""
        ...


# ----------------------------------------------------------------------
# Process backend: worker side
# ----------------------------------------------------------------------
# One engine per worker process, created by the pool initializer and
# reused by every shard that lands on the worker — permutation/cost
# caches warm across shards of one sweep and across sweeps sharing the
# backend.
_WORKER_ENGINE: EvaluationEngine | None = None


def _init_worker(engine_options: dict) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = EvaluationEngine(**engine_options)


def _run_shard(
    shard: Sequence[tuple[int, MappingRequest]],
) -> list[
    tuple[int, np.ndarray | None, MappingCost | None, str | None, dict]
]:
    """Evaluate one shard in the worker; results travel back by value."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("process-backend worker was not initialised")
    results = engine.evaluate_batch([request for _, request in shard])
    return [
        (index, result.perm, result.cost, result.error, result.metrics)
        for (index, _), result in zip(shard, results)
    ]


class ProcessBackend:
    """Shard request lists across worker processes.

    Parameters
    ----------
    num_workers:
        Worker-process count; ``None`` picks ``min(8, cpu_count)``.
    disk_cache_dir:
        Optional result-store directory shared by all workers, and by
        any other engine or service daemon pointed at it; defaults to
        the ``REPRO_CACHE_DIR`` environment variable.
    shards_per_worker:
        Target shards per worker per batch.  More shards smooth out
        imbalanced instance sizes and tighten streaming latency at the
        price of more pickling round-trips.
    engine_options:
        Extra keyword arguments for each worker's private engine,
        checked here by building one engine from them (an unknown name
        raises ``TypeError``, a bad value ``ValueError``, at
        construction rather than inside the workers).

    Notes
    -----
    Requests are serialized by value, so mapper specs must be picklable
    — registry names always are, and so are the built-in mapper classes.
    Worker caches dedupe by value for registry-name specs; a mapper
    *instance* shared by several requests of one batch is pickled once
    and stays shared within each shard.
    """

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        disk_cache_dir: str | os.PathLike | None = None,
        shards_per_worker: int = 4,
        **engine_options,
    ):
        if num_workers is None:
            num_workers = min(8, os.cpu_count() or 1)
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        self.num_workers = int(num_workers)
        self.shards_per_worker = int(shards_per_worker)
        if disk_cache_dir is not None:
            engine_options["disk_cache_dir"] = os.fspath(disk_cache_dir)
        EvaluationEngine(**engine_options)  # a bad option raises here
        self._engine_options = engine_options
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _pool_get(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    initializer=_init_worker,
                    initargs=(self._engine_options,),
                )
            return self._pool

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def _shards(
        self, requests: Sequence[MappingRequest]
    ) -> list[list[tuple[int, MappingRequest]]]:
        """Instance-aligned shards of *requests* for this pool width."""
        return instance_aligned_shards(
            requests, self.num_workers * self.shards_per_worker
        )

    def _submit(
        self, requests: Sequence[MappingRequest]
    ) -> list[Future]:
        pool = self._pool_get()
        return [
            pool.submit(
                _run_shard,
                [(i, strip_request_tag(request)) for i, request in shard],
            )
            for shard in self._shards(requests)
        ]

    _rebuild = staticmethod(rebuild_result)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self, requests: Iterable[MappingRequest]
    ) -> list[MappingResult]:
        """Evaluate a batch across the worker pool, in input order."""
        requests = list(requests)
        results: list[MappingResult | None] = [None] * len(requests)
        futures = self._submit(requests)
        try:
            for future in futures:
                for index, perm, cost, error, metrics in future.result():
                    results[index] = self._rebuild(
                        requests[index], perm, cost, error, metrics
                    )
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results  # type: ignore[return-value]  # every slot is filled

    def evaluate_stream(
        self, requests: Iterable[MappingRequest]
    ) -> Iterator[MappingResult]:
        """Evaluate a batch, yielding results as shards complete.

        Within one shard results keep their relative request order;
        across shards the order is completion order.  Closing the
        generator early cancels shards that have not started.
        """
        requests = list(requests)
        futures = self._submit(requests)
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for index, perm, cost, error, metrics in future.result():
                        yield self._rebuild(
                            requests[index], perm, cost, error, metrics
                        )
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Shut down the worker processes."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessBackend(num_workers={self.num_workers}, "
            f"shards_per_worker={self.shards_per_worker})"
        )


def resolve_backend(
    spec: str | Backend | None,
    *,
    shards: int | None = None,
    **options,
) -> Backend:
    """Turn a backend spec into a :class:`Backend` instance.

    Accepted specs: an existing backend (returned unchanged, *shards*
    and *options* must be absent), ``None``/``"serial"`` (a fresh
    :class:`~repro.engine.EvaluationEngine`, which runs in the calling
    thread), ``"process"`` (process backend, optionally suffixed with a
    worker count as ``"process:4"``, which the *shards* argument
    overrides), or ``"service:[host:]port[:priority]"``, which submits
    jobs to an already-running standing service daemon
    (:class:`~repro.service.ServiceBackend`; start one with ``python -m
    repro.experiments serve-jobs``, and its workers with ``python -m
    repro.experiments work --connect host:port``).  Remaining *options*
    are forwarded to the backend constructor (e.g. ``disk_cache_dir``).
    """
    if isinstance(spec, Backend):
        if shards is not None or options:
            raise TypeError(
                "cannot combine an already constructed backend with "
                "shards/options"
            )
        return spec
    name, _, count_text = (spec or "serial").partition(":")
    if name == "service":
        # Imported lazily: the service package builds on this module.
        from ..service import ServiceBackend, parse_service_spec

        if shards is not None:
            raise ValueError(
                "the service backend takes no --shards; worker width is "
                "chosen per worker (python -m repro.experiments work)"
            )
        try:
            host, port, priority = parse_service_spec(count_text)
        except ValueError as exc:
            raise ValueError(
                f"invalid service backend spec {spec!r}: {exc}"
            ) from None
        return ServiceBackend(host, port, priority=priority, **options)
    if name not in ("serial", "process"):
        raise ValueError(
            f"unknown backend spec {spec!r}; expected 'serial', 'process[:N]' "
            "or 'service:[host:]port[:priority]'"
        )
    count: int | None = shards
    if count_text:
        try:
            parsed = int(count_text)
        except ValueError:
            raise ValueError(f"invalid worker count in backend spec {spec!r}") from None
        count = parsed if count is None else count
    if name == "serial":
        if count not in (None, 1):
            raise ValueError(
                "the serial backend has exactly one worker; shard across "
                "worker processes with 'process:N'"
            )
        return EvaluationEngine(**options)
    return ProcessBackend(num_workers=count, **options)
