"""The standing sweep service: a multi-job coordinator daemon.

A :class:`ServiceDaemon` hosts one persistent
:class:`~repro.engine.cluster.coordinator.Coordinator` — workers attach
once (``python -m repro.experiments work --connect host:port``) and
stay across any number of jobs, keeping their engine caches warm — and
additionally accepts *client* connections on the same port.  Clients
submit compiled sweeps as jobs (a list of shard payloads), get a job id
back, and receive their results streamed per shard; many jobs from many
clients multiplex onto the shared work-stealing queue with priority +
FIFO scheduling, per-job cancellation, and status queries.

Session semantics (one client connection):

* ``SUBMIT`` queues a job and answers ``SUBMITTED`` with its id; the
  daemon then streams ``JOB_RESULT`` frames as shards complete,
  terminated by exactly one of ``JOB_DONE`` (all shards delivered),
  ``JOB_FAIL`` (a shard crashed a worker's engine — the job's
  remaining shards are withdrawn), ``JOB_CANCELLED`` (cancelled by
  this or any other connection) or ``SHUTDOWN`` (daemon closing).
* ``STATUS`` / ``CANCEL`` may be sent on any client connection — also
  one that never submitted — and answer ``STATUS_REPLY`` /
  ``CANCEL_REPLY``.  Cancelling another connection's job notifies that
  connection with ``JOB_CANCELLED``.
* A client that disconnects (or falls silent past the heartbeat
  timeout — stream consumers must ping, see
  :class:`~repro.service.client.JobHandle`) has its unfinished jobs
  cancelled: abandoned work must not occupy the worker pool.

The memoized result-serving layer
---------------------------------
With a cache directory configured (``disk_cache_dir`` /
``REPRO_CACHE_DIR``) the daemon additionally runs a content-addressed
*result store* (:class:`~repro.engine.diskcache.DiskStore`, kind
``result``): every completed cell — one ``(index, request)`` item of a
shard — is published under the stable content key of its request (see
:func:`~repro.engine.diskcache.request_payload`), and every submitted
cell is first looked up there.  A job whose cells are all known is
answered without dispatching a single shard to a worker, with
byte-identical rows; partially known jobs dispatch only the unknown
cells.  Identical cells *in flight* across concurrent jobs are
single-flight: one computation fans its row out to every subscribing
job (and into the store).  Cells with no stable content key — mapper
*instances*, exotic metric params, or opaque non-request payloads —
pass through to workers untouched, so the daemon stays payload-agnostic
where it cannot key.  Job STATUS records count *dispatched* shards
only: a fully store-served job reports ``shards: 0``.

The elastic multi-tenant tier
-----------------------------
Clients are *tenants* (the ``tenant`` field of their handshake, or the
shared default): the queue dispatches by weighted fair share so one
flooding tenant cannot starve the rest, per-client quotas
(``max_client_jobs`` / ``max_client_queued``) answer over-quota
submissions with ``REJECTED``, and ``STATUS`` returns the full service
document — job records plus per-tenant counters plus worker-pool
gauges.  With ``max_workers`` set, an embedded
:class:`~repro.service.autoscale.Autoscaler` grows the pool on demand
and drains it back when idle; with a TLS certificate configured, all
of it — workers and clients alike — runs over TLS.
"""

from __future__ import annotations

import asyncio
import os
import threading

from ..engine.cluster.coordinator import Coordinator
from ..engine.cluster.protocol import (
    CANCEL,
    CANCEL_REPLY,
    FAIL,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAIL,
    JOB_RESULT,
    METRICS,
    METRICS_REPLY,
    PING,
    REJECTED,
    RESULT,
    SHUTDOWN,
    STATUS,
    STATUS_REPLY,
    SUBMIT,
    SUBMITTED,
    WELCOME,
    ProtocolError,
    read_message,
    resolve_secret,
    resolve_tls,
    server_tls_context,
    write_message,
)
from ..engine.diskcache import (
    DiskStore,
    prune,
    request_payload,
    resolve_cache_dir,
    stable_digest,
)
from .autoscale import Autoscaler, ExecSpawner, LocalSpawner

__all__ = ["ServiceDaemon"]


class _ClientConn:
    """Daemon-side state of one connected client."""

    def __init__(self, writer: asyncio.StreamWriter, name: str,
                 tenant: str = ""):
        self.writer = writer
        self.name = name
        self.tenant = tenant
        self.task: asyncio.Task | None = None
        self.jobs: dict[str, tuple[object, asyncio.Task]] = {}
        # Session replies and job forwarders share one writer; without
        # the lock, two tasks awaiting drain() during a flow-control
        # pause trip asyncio's single-waiter assertion.
        self.write_lock = asyncio.Lock()


def _row_value(row) -> tuple | None:
    """The storable ``(perm, cost, error, metrics)`` of one worker row.

    Worker shards answer with ``(index, perm, cost, error, metrics)``
    rows; anything else is not a row the store understands.
    """
    if isinstance(row, (tuple, list)) and len(row) == 5:
        return tuple(row[1:])
    return None


class _PendingShard:
    """One client-visible shard being assembled from store hits,
    in-flight subscriptions, and (a sub-shard of) dispatched items."""

    __slots__ = ("items", "rows", "keys", "dispatch", "id", "raw",
                 "emitted", "missing")

    def __init__(self, items: list):
        self.items = items
        self.rows: list = [None] * len(items)
        self.keys: list = [None] * len(items)
        self.dispatch: list[int] = []  # positions shipped to workers
        self.id: int | None = None     # client-visible shard id
        self.raw = False               # opaque passthrough (no parsing)
        self.emitted = False
        self.missing = len(items)


class _InflightCell:
    """One cell being computed once for every subscribing job."""

    __slots__ = ("key", "request", "owner", "waiters")

    def __init__(self, key: str, request, owner: "_Assembly"):
        self.key = key
        self.request = request
        self.owner = owner
        # (assembly, pending shard, position, client index) per subscriber.
        self.waiters: list[tuple] = []


class _Assembly:
    """One client submission's result-store/single-flight bookkeeping.

    The coordinator job(s) backing the submission stream into a private
    ``internal`` queue; the pump task parses worker rows, publishes
    keyed cells (store + fan-out to waiters), and emits fully assembled
    shards as synthesized ``(RESULT, shard_id, rows)`` frames on the
    ``client_queue`` the session forwarder streams from.  Raw
    (unkeyable) shards are forwarded verbatim, unparsed.
    """

    def __init__(self, coord: "_JobCoordinator", client_queue: asyncio.Queue,
                 *, priority: int, label: str, tenant: str = ""):
        self.coord = coord
        self.client_queue = client_queue
        self.internal: asyncio.Queue = asyncio.Queue()
        self.priority = priority
        self.label = label
        self.tenant = tenant
        self.shards: list[_PendingShard] = []
        self.dispatch_map: dict[int, tuple] = {}  # dispatched shard id -> plan
        self.raw_ids: dict[int, _PendingShard] = {}
        self.outstanding: set[int] = set()
        self.jobs: list = []       # coordinator jobs (primary first)
        self.job_id: str | None = None
        self.unemitted = 0
        self.done = False
        self.pump_task: asyncio.Task | None = None

    # -- frame plumbing ------------------------------------------------
    def _ensure_pump(self) -> None:
        if self.pump_task is None or self.pump_task.done():
            self.pump_task = asyncio.create_task(self._pump())

    async def _pump(self) -> None:
        while self.outstanding and not self.done:
            kind, shard_id, payload = await self.internal.get()
            if self.done:
                return
            if kind == RESULT:
                incomplete = self._on_result(shard_id, payload)
                if incomplete is not None:
                    await self._abort(
                        FAIL, incomplete.id,
                        "worker returned an incomplete or unparseable "
                        "shard payload",
                    )
                    return
            elif kind == FAIL:
                await self._abort(FAIL, shard_id, payload)
                return
            elif kind == CANCEL:
                await self.cancel()
                return
            else:  # SHUTDOWN
                self.done = True
                self.coord._assemblies.pop(self.job_id, None)
                self.client_queue.put_nowait((SHUTDOWN, None, None))
                return

    def _on_result(self, shard_id: int, payload) -> _PendingShard | None:
        """Fold one dispatched shard's rows in; returns the pending
        shard a malformed payload left unfillable, if any."""
        self.outstanding.discard(shard_id)
        ps = self.raw_ids.pop(shard_id, None)
        if ps is not None:
            ps.emitted = True
            self.client_queue.put_nowait((RESULT, ps.id, payload))
            self.unemitted -= 1
            self._maybe_release()
            return None
        entry = self.dispatch_map.pop(shard_id, None)
        if entry is None:
            return None
        kind, plan = entry
        rows = payload if isinstance(payload, list) else []
        if kind == "rescue":
            # Rows resolve purely through the publish path: our own
            # positions are waiter subscriptions on the rescued cells.
            for row in rows:
                value = _row_value(row)
                key = plan.get(row[0]) if value is not None else None
                if key is not None:
                    self.coord._publish_cell(key, value)
            return None
        ps = plan
        index_to_pos = {ps.items[pos][0]: pos for pos in ps.dispatch}
        for row in rows:
            value = _row_value(row)
            if value is None:
                continue
            pos = index_to_pos.get(row[0])
            if pos is None:
                continue
            if ps.rows[pos] is None:
                ps.rows[pos] = tuple(row)
                ps.missing -= 1
            if ps.keys[pos] is not None:
                self.coord._publish_cell(ps.keys[pos], value)
        if ps.missing > 0:
            return ps
        if not ps.emitted:
            self._emit(ps)
        return None

    def _emit(self, ps: _PendingShard) -> None:
        ps.emitted = True
        self.client_queue.put_nowait((RESULT, ps.id, list(ps.rows)))
        self.unemitted -= 1
        self._maybe_release()

    def _maybe_release(self) -> None:
        if self.unemitted == 0 and not self.outstanding and not self.done:
            self.done = True
            self.coord._assemblies.pop(self.job_id, None)

    # -- termination ---------------------------------------------------
    async def _abort(self, kind, shard_id, payload) -> None:
        """Fail the submission: notify the client, withdraw all work."""
        if self.done:
            return
        self.done = True
        self.client_queue.put_nowait((kind, shard_id, payload))
        await self._withdraw()

    async def cancel(self) -> None:
        """Cancel the submission across all its coordinator jobs."""
        if self.done:
            return
        self.done = True
        self.client_queue.put_nowait((CANCEL, None, None))
        await self._withdraw()
        current = asyncio.current_task()
        if self.pump_task is not None and self.pump_task is not current:
            # Its job queues may never produce another frame; don't
            # leave it parked on the internal queue forever.
            self.pump_task.cancel()

    async def _withdraw(self) -> None:
        self.coord._assemblies.pop(self.job_id, None)
        await self.coord._abandon(self)
        for job in self.jobs:
            if not job.finished:
                await self.coord.cancel(job)

    async def _redispatch(self, key_by_index: dict[int, str]) -> None:
        """Submit a supplemental job for in-flight cells inherited from
        a dead owner; their rows resolve via the publish path."""
        items = [
            (index, self.coord._cells[key].request)
            for index, key in key_by_index.items()
        ]
        job, shard_ids = await self.coord.submit(
            [items],
            self.internal,
            priority=self.priority,
            label=f"{self.label}:rescue" if self.label else "rescue",
            tenant=self.tenant,
        )
        self.jobs.append(job)
        self.dispatch_map[shard_ids[0]] = ("rescue", dict(key_by_index))
        self.outstanding.add(shard_ids[0])
        self._ensure_pump()


class _JobCoordinator(Coordinator):
    """A coordinator whose client connections are job sessions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._clients: set[_ClientConn] = set()
        self._result_store = (
            None if self._cache_dir is None
            else DiskStore(self._cache_dir, "result")
        )
        self._cells: dict[str, _InflightCell] = {}
        self._assemblies: dict[str, _Assembly] = {}
        # Result-store accounting (METRICS): cells answered from the
        # store / joined onto an identical in-flight computation /
        # dispatched to workers.
        self._store_hits = 0
        self._store_joins = 0
        self._store_misses = 0
        #: Updated in place by the hosting daemon's auto-prune loop
        #: (``None`` when no prune policy is configured).
        self.prune_stats: dict | None = None

    # ------------------------------------------------------------------
    # Result store / cross-job single-flight
    # ------------------------------------------------------------------
    def _cell_key(self, item) -> str | None:
        """Stable content key of one ``(index, request)`` shard item,
        or ``None`` for opaque/unkeyable payloads (pure passthrough)."""
        if not (isinstance(item, tuple) and len(item) == 2):
            return None
        payload = request_payload(item[1])
        return None if payload is None else stable_digest(payload)

    def _publish_cell(self, key: str, value: tuple) -> None:
        """Persist one computed cell and fan it out to every subscriber."""
        if self._result_store is not None:
            self._result_store.store(key, value)
        cell = self._cells.pop(key, None)
        if cell is None:
            return
        for asm, ps, pos, index in cell.waiters:
            if asm.done or ps.emitted or ps.rows[pos] is not None:
                continue
            ps.rows[pos] = (index, *value)
            ps.missing -= 1
            if ps.missing == 0:
                asm._emit(ps)

    async def _abandon(self, asm: _Assembly) -> None:
        """Detach a finished/failed/cancelled submission from the
        single-flight table: drop its subscriptions, and hand each
        in-flight cell it owned to a surviving waiter, which dispatches
        a supplemental (rescue) job for the inherited cells."""
        rescues: dict[_Assembly, dict[int, str]] = {}
        for key in list(self._cells):
            cell = self._cells[key]
            cell.waiters = [w for w in cell.waiters if not w[0].done]
            if cell.owner is not asm and not cell.owner.done:
                continue
            if not cell.waiters:
                del self._cells[key]
                continue
            heir = cell.waiters[0][0]
            cell.owner = heir
            rescues.setdefault(heir, {})[cell.waiters[0][3]] = key
        for heir, key_by_index in rescues.items():
            await heir._redispatch(key_by_index)

    async def submit_job(
        self, payloads: list[list], results: asyncio.Queue,
        *, priority: int = 0, label: str = "", tenant: str = "",
    ):
        """Queue one client job, serving repeat cells from the result
        store and deduplicating identical in-flight cells across jobs.

        Falls back to plain :meth:`Coordinator.submit` when no cache
        directory is configured.  Returns ``(job, client_shard_ids)``;
        the ids cover *every* submitted shard (dispatched or not), while
        the job's STATUS record counts only dispatched shards.
        """
        if self._result_store is None:
            return await self.submit(
                payloads, results, priority=priority, label=label,
                tenant=tenant,
            )
        asm = _Assembly(
            self, results, priority=priority, label=label, tenant=tenant
        )
        # Everything up to the submit below runs without suspension, so
        # the store lookups, in-flight subscriptions and client-visible
        # shard ids are established atomically with respect to other
        # submissions (and to publishes resolving our subscriptions).
        for items in payloads:
            ps = _PendingShard(items)
            ps.id = self._alloc_shard_id()
            for pos, item in enumerate(items):
                key = self._cell_key(item)
                if key is None:
                    ps.dispatch.append(pos)
                    continue
                ps.keys[pos] = key
                value = self._result_store.load(key)
                if isinstance(value, tuple) and len(value) == 4:
                    self._store_hits += 1
                    ps.rows[pos] = (item[0], *value)
                    ps.missing -= 1
                    continue
                cell = self._cells.get(key)
                if cell is not None:
                    self._store_joins += 1
                    cell.waiters.append((asm, ps, pos, item[0]))
                    continue
                self._store_misses += 1
                self._cells[key] = _InflightCell(key, item[1], asm)
                ps.dispatch.append(pos)
            # A shard with no keyable item at all is forwarded verbatim,
            # payload unparsed: the daemon stays agnostic to non-request
            # workloads.
            ps.raw = bool(ps.dispatch) and all(k is None for k in ps.keys)
            asm.shards.append(ps)
        asm.unemitted = len(asm.shards)
        # Shards fully resolved from the store complete before any
        # worker sees the job (possibly the whole job: zero dispatch).
        for ps in asm.shards:
            if ps.missing == 0 and not ps.emitted:
                asm._emit(ps)
        dispatched = [ps for ps in asm.shards if ps.dispatch]
        job, shard_ids = await self.submit(
            [
                list(ps.items) if ps.raw
                else [ps.items[pos] for pos in ps.dispatch]
                for ps in dispatched
            ],
            asm.internal,
            priority=priority,
            label=label,
            tenant=tenant,
        )
        asm.jobs.append(job)
        asm.job_id = job.id
        for ps, sid in zip(dispatched, shard_ids):
            asm.outstanding.add(sid)
            if ps.raw:
                asm.raw_ids[sid] = ps
            else:
                asm.dispatch_map[sid] = ("shard", ps)
        if not asm.done and asm.unemitted:
            self._assemblies[job.id] = asm
            if asm.outstanding:
                asm._ensure_pump()
        return job, [ps.id for ps in asm.shards]

    def metrics_snapshot(self) -> dict:
        """The base document plus the ``store`` hit-rate section."""
        doc = super().metrics_snapshot()
        looked_up = self._store_hits + self._store_joins + self._store_misses
        doc["store"] = {
            "enabled": self._result_store is not None,
            "hits": self._store_hits,
            "inflight_joins": self._store_joins,
            "misses": self._store_misses,
            "hit_rate": (
                None if not looked_up
                else (self._store_hits + self._store_joins) / looked_up
            ),
            "inflight_cells": len(self._cells),
            "prune": self.prune_stats,
        }
        return doc

    async def _cancel_submission(self, job) -> None:
        """Cancel a client job through its assembly when it has one."""
        asm = self._assemblies.get(job.id)
        if asm is not None:
            await asm.cancel()
        elif not job.finished:
            await self.cancel(job)

    async def aclose(self) -> None:
        # Wake every submission: pumps are cancelled (their coordinator
        # jobs are about to be failed anyway) and the client queues get
        # the SHUTDOWN frame directly so forwarders unwind.
        for asm in list(self._assemblies.values()):
            asm.done = True
            if asm.pump_task is not None:
                asm.pump_task.cancel()
            asm.client_queue.put_nowait((SHUTDOWN, None, None))
        self._assemblies.clear()
        self._cells.clear()
        await super().aclose()
        # Job queues got SHUTDOWN above; closing the transports EOFs the
        # session read loops, which then unwind on their own.  They are
        # awaited (not cancelled: cancelling a start_server connection
        # task trips asyncio's stream callback on 3.11) so none outlive
        # the event loop.
        sessions = [c.task for c in self._clients if c.task is not None]
        for conn in list(self._clients):
            try:
                await self._send(conn, (SHUTDOWN,))
            except (ConnectionError, OSError):
                pass
            conn.writer.close()
        self._clients.clear()
        if sessions:
            await asyncio.wait(sessions, timeout=5.0)

    # ------------------------------------------------------------------
    # Client sessions
    # ------------------------------------------------------------------
    @staticmethod
    async def _send(conn: _ClientConn, message: tuple) -> None:
        async with conn.write_lock:
            await write_message(conn.writer, message)

    async def _serve_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        name: str,
        info: dict,
    ) -> None:
        conn = _ClientConn(writer, name, str(info.get("tenant", "") or ""))
        conn.task = asyncio.current_task()
        self._clients.add(conn)
        try:
            await self._send(
                conn,
                (
                    WELCOME,
                    {"heartbeat_interval": self._heartbeat_timeout / 3.0},
                ),
            )
            while True:
                # Clients must stay audible (PING while waiting on a
                # long job); a silent connection is treated as dead so
                # its jobs stop occupying the worker pool.
                try:
                    message = await asyncio.wait_for(
                        read_message(reader), timeout=self._heartbeat_timeout,
                    )
                except asyncio.TimeoutError:
                    break
                if message is None or not isinstance(message, tuple) or not message:
                    break
                kind = message[0]
                if kind == PING:
                    continue
                if kind == SUBMIT and len(message) == 3:
                    await self._client_submit(conn, message[1], message[2])
                elif kind == STATUS and len(message) == 2:
                    await self._send(
                        conn, (STATUS_REPLY, self.service_snapshot(message[1]))
                    )
                elif kind == METRICS:
                    await self._send(
                        conn, (METRICS_REPLY, self.metrics_snapshot())
                    )
                elif kind == CANCEL and len(message) == 2:
                    ok = await self._client_cancel(message[1])
                    await self._send(conn, (CANCEL_REPLY, message[1], ok))
                else:
                    break
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            self._clients.discard(conn)
            for job, forwarder in list(conn.jobs.values()):
                if forwarder is not None:
                    forwarder.cancel()
                await self._cancel_submission(job)
            conn.jobs.clear()
            writer.close()

    async def _client_submit(
        self, conn: _ClientConn, payloads: object, options: object
    ) -> None:
        options = options if isinstance(options, dict) else {}
        if not isinstance(payloads, list) or not all(
            isinstance(shard, list) for shard in payloads
        ):
            raise ProtocolError("SUBMIT payload must be a list of shard lists")
        # Admission control: a client over its job/backlog quota gets a
        # clean REJECTED (with the reason) instead of queue admission —
        # its session stays open, and other tenants' work is untouched.
        reason = self.admission_error(conn.tenant, len(payloads))
        if reason is not None:
            self.note_rejection(conn.tenant)
            await self._send(conn, (REJECTED, reason))
            return
        results: asyncio.Queue = asyncio.Queue()
        job, shard_ids = await self.submit_job(
            payloads,
            results,
            priority=int(options.get("priority", 0)),
            label=str(options.get("label", "") or ""),
            tenant=conn.tenant,
        )
        # Registered before the SUBMITTED write: if the client is
        # already gone when the reply fails, the session's cleanup must
        # find (and cancel) this job rather than orphan it on the
        # worker pool.  The forwarder starts only *after* SUBMITTED is
        # on the wire — result-store hits complete instantly, and a
        # JOB_RESULT frame must not overtake the submission reply.
        if shard_ids:
            conn.jobs[job.id] = (job, None)
        await self._send(conn, (SUBMITTED, job.id, shard_ids))
        if shard_ids:
            forwarder = asyncio.create_task(
                self._forward_job(conn, job, results, set(shard_ids))
            )
            conn.jobs[job.id] = (job, forwarder)
        else:
            await self._send(conn, (JOB_DONE, job.id))

    async def _client_cancel(self, job_id: object) -> bool:
        if not isinstance(job_id, str):
            return False
        # A store-backed submission can outlive its (possibly already
        # finished) coordinator job while it waits on shared in-flight
        # cells; cancelling must go through the assembly.
        asm = self._assemblies.get(job_id)
        if asm is not None:
            await asm.cancel()
            return True
        job = self.find_job(job_id)
        if job is None:
            return False
        await self.cancel(job)
        return True

    async def _forward_job(
        self, conn: _ClientConn, job, results: asyncio.Queue, remaining: set
    ) -> None:
        """Stream one job's shard queue to its submitting client."""
        try:
            while remaining:
                kind, shard_id, payload = await results.get()
                if kind == RESULT:
                    remaining.discard(shard_id)
                    await self._send(
                        conn, (JOB_RESULT, job.id, shard_id, payload)
                    )
                elif kind == FAIL:
                    await self._send(conn, (JOB_FAIL, job.id, shard_id, payload))
                    # Withdraw the job's other shards: it already failed.
                    await self._cancel_submission(job)
                    return
                elif kind == CANCEL:
                    await self._send(conn, (JOB_CANCELLED, job.id))
                    return
                else:  # SHUTDOWN
                    await self._send(conn, (SHUTDOWN,))
                    return
            await self._send(conn, (JOB_DONE, job.id))
        except (ConnectionError, OSError):
            conn.writer.close()
        finally:
            conn.jobs.pop(job.id, None)


class ServiceDaemon:
    """A standing sweep service on a private background event loop.

    Parameters
    ----------
    host, port:
        Bind address for workers *and* clients (one port, roles are
        declared in the handshake).  The default binds every interface
        on an ephemeral port; read :attr:`host`/:attr:`port` for the
        bound values.
    heartbeat_timeout:
        Seconds of silence after which a worker (or streaming client)
        connection is presumed dead; workers' in-flight shards are
        requeued, clients' unfinished jobs are cancelled.
    disk_cache_dir:
        Persistent cache directory: advertised to workers (edge/perm/
        cost/metric tiers) *and* backing the daemon's own
        content-addressed result store, which answers repeat cells
        without dispatching work (see the module docstring).  Defaults
        to ``REPRO_CACHE_DIR``; unset disables both.
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
    min_workers, max_workers:
        Worker-pool bounds for the embedded :class:`~repro.service.
        autoscale.Autoscaler`.  ``max_workers=None`` (default)
        disables autoscaling entirely — the pool is whatever attaches.
        With a bound, the daemon spawns workers on demand (up to
        ``max_workers``) and drains idle ones back to ``min_workers``.
    spawner:
        Where autoscaled workers come from; defaults to a
        :class:`~repro.service.autoscale.LocalSpawner` launching
        ``cluster.worker`` subprocesses on this host (inheriting the
        daemon's secret and trust root), or an
        :class:`~repro.service.autoscale.ExecSpawner` when
        *spawn_command* is given.
    spawn_command:
        Command template (``{host}``/``{port}``/``{address}``
        placeholders) run once per spawned worker — the remote-host
        seam (``ssh``, batch submission, containers).
    worker_backend:
        Local backend spec (``resolve_backend`` syntax) for workers
        the default spawner launches, e.g. ``"process:4"``.
    idle_grace:
        Seconds the pool must be fully idle before excess autoscaled
        workers drain (finish their shards, then exit — never killed).
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
        host: str = "",
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
        min_workers: int = 0,
        max_workers: int | None = None,
        spawner=None,
        spawn_command: str | None = None,
        worker_backend: str | None = None,
        idle_grace: float = 5.0,
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
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-daemon",
            daemon=True,
        )
        self._thread.start()
        self._coordinator = _JobCoordinator(
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
        self._autoscaler = None
        self._spawner = None
        if max_workers is not None:
            if spawner is None:
                if spawn_command:
                    spawner = ExecSpawner(spawn_command)
                else:
                    # Spawned workers must trust the daemon's own cert:
                    # with a private CA that is tls_ca, self-signed it
                    # is the certificate itself.
                    spawner = LocalSpawner(
                        backend_spec=worker_backend,
                        secret=secret,
                        tls_ca=(tls_ca or tls_cert) if tls_cert else None,
                    )
            self._spawner = spawner
            self._autoscaler = Autoscaler(
                self._coordinator,
                spawner,
                min_workers=min_workers,
                max_workers=max_workers,
                idle_grace=idle_grace,
            )
            self._coordinator.autoscaler = self._autoscaler
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
        try:
            self._run(self._coordinator.start())
            if self._autoscaler is not None:
                self._run(self._autoscaler.start())
            if prune_policy:
                self._prune_task = self._run(self._start_prune_loop())
        except BaseException:
            self._stop_loop()
            raise

    async def _start_prune_loop(self) -> asyncio.Task:
        return asyncio.create_task(self._prune_loop())

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
        """Block until *count* workers are connected."""
        self._run(self._coordinator.wait_for_workers(count, timeout), timeout=None)

    def jobs(self, job_id: str | None = None) -> list[dict]:
        """Status records of live and recently finished jobs."""

        async def snapshot() -> list[dict]:
            return self._coordinator.jobs_snapshot(job_id)

        return self._run(snapshot())

    def status(self, job_id: str | None = None) -> dict:
        """The full service STATUS document.

        ``{"jobs": [...], "clients": [...], "pool": {...}}`` — job
        records, per-tenant share/quota counters, and worker-pool
        gauges (including autoscaler counters when one is running).
        """

        async def snapshot() -> dict:
            return self._coordinator.service_snapshot(job_id)

        return self._run(snapshot())

    def metrics(self) -> dict:
        """The live observability document (what METRICS answers).

        Per-job progress/ETA, queue depth and age, per-tenant
        counters, pool/autoscaler gauges and result-store hit rates.
        """

        async def snapshot() -> dict:
            return self._coordinator.metrics_snapshot()

        return self._run(snapshot())

    def cancel_job(self, job_id: str) -> bool:
        """Cancel a live job; ``False`` when unknown or already finished."""
        return self._run(self._coordinator._client_cancel(job_id))

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
                    self._loop.call_soon_threadsafe(self._prune_task.cancel)
                # Autoscaler first: a tick racing the shutdown must not
                # spawn into a closing coordinator.
                if self._autoscaler is not None:
                    self._run(self._autoscaler.aclose(), timeout=10.0)
                self._run(self._coordinator.aclose(), timeout=30.0)
            finally:
                self._closed = True
                self._stop_loop()
                if self._spawner is not None:
                    # Workers were already told SHUTDOWN; this only
                    # waits for their processes (and terminates any
                    # launcher that ignored it).
                    self._spawner.close()

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
