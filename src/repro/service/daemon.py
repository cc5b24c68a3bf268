"""The standing sweep service: one coordinator on its own event loop.

A :class:`ServiceDaemon` hosts one
:class:`~repro.engine.cluster.coordinator.Coordinator` on a private
background event loop.  Workers attach once (``python -m
repro.experiments work --connect host:port``) and stay across any
number of jobs, keeping their engine caches warm; clients connect to
the same port, submit compiled sweeps as jobs (a list of shard
payloads), get a job id back, and receive their results streamed per
shard.  Many jobs from many clients multiplex onto the shared
work-stealing queue with priority + fair-share scheduling, per-job
cancellation, and status queries.  The coordinator's module docstring
gives the client session semantics and the result store a cache
directory turns on.

The CLI runs one as ``serve-jobs``; a library caller constructs one
and closes it.  It binds loopback unless given another host (``""`` is
every interface); before exposing the port, read the README's Trust
section.

The multi-tenant tier
---------------------
Clients are *tenants* (the ``tenant`` field of their handshake, or the
shared default): the queue dispatches by weighted fair share so one
flooding tenant cannot starve the rest, per-client quotas
(``max_client_jobs`` / ``max_client_queued``) answer over-quota
submissions with ``REJECTED``, and ``STATUS`` returns the full service
document — job records plus per-tenant counters plus worker-pool
gauges.  The pool is whatever attaches; with a TLS certificate
configured, all of it — workers and clients alike — runs over TLS.
"""

from __future__ import annotations

import asyncio
import os
import threading

from ..engine.cluster.coordinator import Coordinator
from ..engine.cluster.protocol import (
    resolve_secret,
    resolve_tls,
    server_tls_context,
)
from ..engine.diskcache import prune, resolve_cache_dir

__all__ = ["ServiceDaemon"]


class ServiceDaemon:
    """A standing sweep service on a private background event loop.

    Parameters
    ----------
    host, port:
        Bind address for workers *and* clients (one port, roles are
        declared in the handshake).  The default binds loopback on an
        ephemeral port (``""`` binds every interface); read
        :attr:`host`/:attr:`port` for the bound values.
    heartbeat_timeout:
        Seconds of silence after which a worker (or streaming client)
        connection is presumed dead; workers' in-flight shards are
        requeued, clients' unfinished jobs are cancelled.
    disk_cache_dir:
        Result-store directory backing the daemon's content-addressed
        result serving, which answers stored cells without dispatching
        work and dispatches the rest, identical cells of concurrent
        jobs each (see :mod:`repro.engine.cluster.coordinator`).
        Engines pointed at the same directory share those cells;
        workers are not told about it (``work --cache-dir`` sets
        theirs).  Defaults to ``REPRO_CACHE_DIR``; unset disables it.
    max_shard_requeues:
        Worker deaths one shard may survive before its job fails.
    secret:
        Shared authentication secret required of every worker and
        client (default: ``REPRO_CLUSTER_SECRET``; empty disables).
    history_limit:
        Finished jobs kept for :meth:`jobs` queries.
    tls_cert, tls_key, tls_ca:
        Serve workers and clients over TLS with this certificate/key
        pair (defaults: ``REPRO_TLS_CERT``/``REPRO_TLS_KEY``); peers
        connect with ``--tls-ca`` naming the matching trust root.
        *tls_ca* additionally demands client certificates (mutual
        TLS).  Unset serves cleartext, the default.
    max_client_jobs, max_client_queued:
        Per-client admission quotas: live jobs one tenant may hold and
        shards it may have queued (``0`` means unlimited).  A
        submission over quota is answered ``REJECTED`` with the
        reason; nothing is queued.
    share_weights:
        Optional ``{tenant: weight}`` fair-share weights; unlisted
        tenants weigh ``1.0``.  Dispatch order interleaves tenants by
        weighted deficit, so a flooding client cannot starve others
        regardless of submission volume.
    store_max_bytes, store_ttl, store_prune_interval:
        Auto-prune policy the daemon applies to its own cache
        directory every *store_prune_interval* seconds (default 60):
        entries unused for *store_ttl* seconds are dropped, then the
        directory is LRU-evicted down to *store_max_bytes* (see
        :func:`~repro.engine.diskcache.prune`).  Both ``None`` (the
        default) disables the loop; setting either requires a cache
        directory.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = 15.0,
        disk_cache_dir: str | os.PathLike | None = None,
        max_shard_requeues: int = 3,
        secret: str | None = None,
        history_limit: int = 256,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        tls_ca: str | None = None,
        max_client_jobs: int = 0,
        max_client_queued: int = 0,
        share_weights: dict | None = None,
        store_max_bytes: int | None = None,
        store_ttl: float | None = None,
        store_prune_interval: float = 60.0,
    ):
        cache_dir = resolve_cache_dir(disk_cache_dir)
        self.disk_cache_dir = None if cache_dir is None else str(cache_dir)
        if store_max_bytes is not None and store_max_bytes < 0:
            raise ValueError(
                f"store_max_bytes must be >= 0, got {store_max_bytes}"
            )
        if store_ttl is not None and store_ttl <= 0:
            raise ValueError(f"store_ttl must be positive, got {store_ttl}")
        if store_prune_interval <= 0:
            raise ValueError(
                f"store_prune_interval must be positive, got "
                f"{store_prune_interval}"
            )
        prune_policy = store_max_bytes is not None or store_ttl is not None
        if prune_policy and self.disk_cache_dir is None:
            raise ValueError(
                "store_max_bytes/store_ttl need a cache directory "
                "(disk_cache_dir or REPRO_CACHE_DIR)"
            )
        self._store_max_bytes = store_max_bytes
        self._store_ttl = store_ttl
        self._store_prune_interval = float(store_prune_interval)
        secret = resolve_secret(secret)
        tls_cert, tls_key, tls_ca = resolve_tls(tls_cert, tls_key, tls_ca)
        ssl_context = (
            server_tls_context(tls_cert, tls_key, tls_ca) if tls_cert else None
        )
        self._coordinator = Coordinator(
            host,
            port,
            heartbeat_timeout=heartbeat_timeout,
            cache_dir=self.disk_cache_dir,
            max_shard_requeues=max_shard_requeues,
            secret=secret,
            history_limit=history_limit,
            ssl_context=ssl_context,
            share_weights=share_weights,
            max_client_jobs=max_client_jobs,
            max_client_queued=max_client_queued,
        )
        self._prune_task = None
        if prune_policy:
            self._coordinator.prune_stats = {
                "max_bytes": store_max_bytes,
                "ttl": store_ttl,
                "interval": self._store_prune_interval,
                "runs": 0,
                "removed_total": 0,
                "last_removed": None,
                "errors": 0,
                "last_error": None,
            }
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-daemon",
            daemon=True,
        )
        self._thread.start()
        try:
            self._run(self._coordinator.start())
            if prune_policy:
                self._prune_task = asyncio.run_coroutine_threadsafe(
                    self._prune_loop(), self._loop
                )
        except BaseException:
            self._stop_loop()
            raise

    async def _prune_loop(self) -> None:
        """Apply the store prune policy periodically (daemon loop task).

        The scan/unlink work runs on a thread so a large cache
        directory never stalls the event loop.  A failed round must not
        take the daemon down: it counts under ``errors`` with its
        message in ``last_error`` (both reported by METRICS under
        ``store.prune``), and the next round retries.
        """
        stats = self._coordinator.prune_stats
        while True:
            await asyncio.sleep(self._store_prune_interval)
            try:
                removed = await asyncio.to_thread(
                    prune,
                    self.disk_cache_dir,
                    self._store_max_bytes,
                    ttl=self._store_ttl,
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - the loop must keep running
                stats["errors"] += 1
                stats["last_error"] = f"{type(exc).__name__}: {exc}"
                continue
            stats["runs"] += 1
            stats["removed_total"] += sum(removed.values())
            stats["last_removed"] = removed

    # ------------------------------------------------------------------
    # Event-loop plumbing
    # ------------------------------------------------------------------
    def _run(self, coro, timeout: float | None = 30.0):
        if self._closed:
            raise RuntimeError("service daemon is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._thread.is_alive():
            self._loop.close()

    def _snapshot(self, method, *args):
        """Call a coordinator snapshot method on the daemon loop."""

        async def call():
            return method(*args)

        return self._run(call())

    # ------------------------------------------------------------------
    # Introspection and control
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The daemon's bound host."""
        return self._coordinator.address[0]

    @property
    def port(self) -> int:
        """The daemon's bound port (resolved when it was ``0``)."""
        return self._coordinator.address[1]

    @property
    def num_workers(self) -> int:
        """Currently connected worker count."""
        return self._coordinator.num_workers

    def wait_for_workers(self, count: int, timeout: float | None = None) -> None:
        """Block until *count* workers are connected.

        Raises :class:`TimeoutError` if *timeout* seconds elapse first.
        """
        self._run(self._coordinator.wait_for_workers(count, timeout), timeout=None)

    def jobs(self, job_id: str | None = None) -> list[dict]:
        """Status records of live and recently finished jobs."""
        return self._snapshot(self._coordinator.jobs_snapshot, job_id)

    def status(self, job_id: str | None = None) -> dict:
        """The full service STATUS document.

        ``{"jobs": [...], "clients": [...], "pool": {...}}`` — job
        records, per-tenant share/quota counters, and worker-pool
        gauges.
        """
        return self._snapshot(self._coordinator.service_snapshot, job_id)

    def metrics(self) -> dict:
        """The live observability document (what METRICS answers).

        Per-job progress/ETA, queue depth and age, per-tenant
        counters, worker-pool gauges and result-store hit rates.
        """
        return self._snapshot(self._coordinator.metrics_snapshot)

    def cancel_job(self, job_id: str) -> bool:
        """Cancel a live job; ``False`` when unknown or already finished."""
        return self._run(self._coordinator.cancel_job(job_id))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the service: workers shut down, outstanding jobs fail."""
        with self._lifecycle_lock:
            if self._closed:
                return
            try:
                if self._prune_task is not None:
                    self._prune_task.cancel()
                self._run(self._coordinator.aclose(), timeout=30.0)
            finally:
                self._closed = True
                self._stop_loop()

    def __enter__(self) -> "ServiceDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        if self._closed:
            return "ServiceDaemon(closed)"
        return (
            f"ServiceDaemon({self.host}:{self.port}, "
            f"{self.num_workers} worker(s))"
        )
