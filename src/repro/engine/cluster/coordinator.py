"""The asyncio coordinator: a priority work-stealing shard queue over TCP.

One :class:`Coordinator` runs on the event loop of every
:class:`~repro.service.ServiceDaemon` (``serve-jobs``).  Peers
declare their role in the handshake.  *Workers* connect, handshake,
and *pull*: each ``GET`` hands the worker the next queued shard, so
fast workers naturally steal load from slow ones and a heterogeneous
cluster stays busy without any static partitioning.  A worker asks
for its next shard before evaluating the one it got, so it may hold
one shard beyond the one it evaluates; such a ``GET`` is served only
while more shards are queued than idle workers wait, so new work goes
to an idle worker first.  *Clients* submit jobs and stream their
results back (see "Client sessions" below).

Work is organised in *jobs*: one :meth:`submit` call queues one job's
shards and assigns it an id, a priority, a *tenant* (the submitting
client's identity, for fair-share accounting) and a status record.
Shards dispatch by ``(priority desc, fair share, submission order)``:
a higher-priority job's shards are handed out before a lower-priority
job's remaining shards; *within* a priority level the next shard comes
from the tenant with the smallest weighted deficit (``share``, bumped
by ``1/weight`` per dispatched shard), so a tenant flooding the queue
cannot starve the others — each dispatch round visits every tenant
with queued work.  A tenant re-entering the queue has its deficit
clamped up to the minimum among currently-queued tenants, so idle time
banks no credit and newcomers wait at most one shard round.  Within
one tenant, jobs of equal priority drain FIFO and shards keep their
submission order; with a single tenant the schedule is exactly the
pre-fair-share ``(priority desc, job FIFO, shard order)``.  Many jobs
may be in flight at once; they share the worker pool but fail, finish
and cancel independently.

Per-tenant *admission control*: :meth:`admission_error` answers
whether a submission would exceed the configured bounds on unfinished
jobs or queued shards per tenant, and a client session turns a
non-``None`` answer into a ``REJECTED`` reply.

The pool is whatever attaches: workers join and leave on their own,
and :meth:`load_snapshot` exposes its queue-depth and busyness gauges.

When a shared secret is configured the handshake adds an HMAC
challenge–response leg (see :mod:`repro.engine.cluster.protocol`);
peers that cannot answer are rejected before any work or pickled
payload is exchanged.

Failure semantics:

* **worker disconnect** (crash, ``kill -9``, network drop) — every
  shard in flight on that connection is requeued ahead of its job's
  remaining shards and the sweep completes on the remaining workers.
  Only the oldest of them, the one the worker was evaluating, counts
  towards ``max_shard_requeues``; one it held ahead never ran;
* **silent worker** — a connection that sends nothing (not even a
  heartbeat ``PING``) for ``heartbeat_timeout`` seconds is closed by
  the reaper, which triggers the same requeue path;
* **stale peer build** — a ``HELLO`` carrying the wrong magic or
  protocol version is answered with ``REJECT`` and closed before any
  work is exchanged;
* **poisoned shard** — a worker reporting ``FAIL`` (its engine raised)
  fails the submitting job instead of requeueing, because a
  deterministically crashing shard would requeue forever.

Results cross back to the submitting side through a per-job
:class:`asyncio.Queue`; shard completion is idempotent, so a shard that
was requeued *and* completed twice is only delivered once.  Cancelling
a job posts a ``(CANCEL, None, None)`` notice on its queue so a
consumer streaming results learns about a cancellation made from
elsewhere.

Client sessions
---------------
Semantics of one client connection:

* ``SUBMIT`` queues a job and answers ``SUBMITTED`` with its id; the
  coordinator then streams ``JOB_RESULT`` frames as shards complete,
  terminated by exactly one of ``JOB_DONE`` (all shards delivered),
  ``JOB_FAIL`` (a shard crashed a worker's engine — the job's
  remaining shards are withdrawn), ``JOB_CANCELLED`` (cancelled by
  this or any other connection) or ``SHUTDOWN`` (coordinator closing).
* ``STATUS`` / ``METRICS`` / ``CANCEL`` may be sent on any client
  connection — also one that never submitted — and answer
  ``STATUS_REPLY`` / ``METRICS_REPLY`` / ``CANCEL_REPLY``.  Cancelling
  another connection's job notifies that connection with
  ``JOB_CANCELLED``.
* A client that disconnects (or falls silent past the heartbeat
  timeout — stream consumers must ping, see
  :class:`~repro.service.client.JobHandle`) has its unfinished jobs
  cancelled: abandoned work must not occupy the worker pool.  A
  cancelled job's shard that a worker already holds is evaluated, and
  its result dropped.
* One connection may carry any number of jobs one after another: a
  :class:`~repro.service.client.ServiceClient` keeps its connection
  between jobs and calls.

The result store
----------------
With a cache directory configured the coordinator additionally serves
from the content-addressed *result store*
(:class:`~repro.engine.diskcache.DiskStore`): every completed cell —
one ``(index, request)`` item of a shard — is published under its
request's :func:`~repro.engine.diskcache.cell_key`, and every
submitted cell is first looked up there.  Engines with the same cache
directory read and write the same cells, so cells computed by a
serial or process run are answered here too, and the other
way round.  A job whose cells are all known is answered without
dispatching a single shard to a worker, with byte-identical rows;
partially known jobs dispatch only the unknown cells.  Identical cells
*in flight* across concurrent jobs are single-flight: one computation
fans its row out to every subscribing job (and into the store).
Cells with no stable content key — mapper *instances*, exotic metric
params, or opaque non-request payloads — pass through to workers
untouched, so the coordinator stays payload-agnostic where it cannot
key.  Job STATUS records count *dispatched* shards only: a fully
store-served job reports ``shards: 0``.

Cells stay encoded throughout: a worker's ``RESULT`` rows carry each
cell as the ``.cell`` bytes of the store (protocol v7).  Every cell a
worker sends is checked on receipt, its structure and CRC always and
its key wherever the coordinator keyed the item; a cell that fails is a
protocol error from that worker, whose connection closes so that its
shards are requeued as if it had died, and nothing of the shard is
stored.  A checked cell is published exactly as received, and a
``JOB_RESULT`` splices the bytes of its cells, whether they came from a
worker, the store or memory.

The store has a memory front, as an engine's LRUs sit in front of its
store: every cell :meth:`DiskStore.load_bytes
<repro.engine.diskcache.DiskStore.load_bytes>` returns, and a copy of
every cell published, is remembered under its key as bytes, and a
repeat lookup is answered from memory without reading the file again.
Memory is bounded by one constant, ``_MEMORY_BYTES`` (64 MiB of cell
bytes, ``len(cell)``); the least recently used cells make room.  A
memory hit bumps the cell file's mtime, so ``prune`` still orders cells
by recency of use, and a remembered cell whose file is gone (``cache
clear``, ``--store-ttl``, ``--store-max-bytes``) is forgotten and
looked up on disk like any other cell.  Memory hits count as store
``hits`` and also as ``memory_hits`` in METRICS.
"""

from __future__ import annotations

import asyncio
import heapq
import hmac
import itertools
import secrets
import ssl
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..diskcache import CellError, DiskStore, cell_key, decode_cell
from .protocol import (
    AUTH,
    CANCEL,
    CANCEL_REPLY,
    CHALLENGE,
    FAIL,
    GET,
    HELLO,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAIL,
    JOB_RESULT,
    MAGIC,
    MAX_HANDSHAKE_BYTES,
    METRICS,
    METRICS_REPLY,
    PING,
    PROTOCOL_VERSION,
    WIRE_PICKLE_PROTOCOL,
    REJECT,
    REJECTED,
    RESULT,
    SHARD,
    SHUTDOWN,
    STATUS,
    STATUS_REPLY,
    SUBMIT,
    SUBMITTED,
    WELCOME,
    ProtocolError,
    auth_digest,
    read_message,
    write_message,
)

__all__ = ["Coordinator"]

#: Compared with :func:`hmac.compare_digest` against the peer's AUTH reply.
_AUTH_MISMATCH = (
    "authentication failed: shared-secret mismatch (pass --secret or set "
    "REPRO_CLUSTER_SECRET to the coordinator's secret)"
)

#: How long :meth:`Coordinator.aclose` waits for workers to hang up on
#: their own after the SHUTDOWN + half-close, before force-dropping the
#: stragglers.  An idle loopback worker responds within milliseconds;
#: the cap only bites on peers that never read (already-dead sockets).
_SHUTDOWN_GRACE = 2.0

#: Default tenant identity of submissions that declare none.
DEFAULT_TENANT = "default"

#: Idle tenant records kept before the oldest are evicted.  A tenant is
#: evictable once it has nothing queued, nothing unfinished and no
#: tracked history; the cap only bounds bookkeeping for daemons serving
#: an unbounded population of one-shot clients.
_TENANT_LIMIT = 1024

#: Bytes (``len(cell)``) of the cells the coordinator keeps in memory in
#: front of its result store.
_MEMORY_BYTES = 64 << 20


@dataclass(eq=False)
class _Tenant:
    """Fair-share and quota accounting of one submitting client."""

    name: str
    seq: int
    weight: float = 1.0
    #: Weighted deficit: bumped by ``1/weight`` per dispatched shard;
    #: the queued tenant with the smallest share dispatches next.
    share: float = 0.0
    queued: int = 0
    active_jobs: int = 0
    jobs_submitted: int = 0
    shards_dispatched: int = 0
    shards_completed: int = 0
    rejected: int = 0
    #: This tenant's entries in the finished-job history, oldest first
    #: (bounds any one tenant's slice of the shared history).
    history: OrderedDict[str, None] = field(default_factory=OrderedDict)


@dataclass(eq=False)
class _Job:
    """One submitted batch: shard ids still pending plus the result pipe."""

    id: str
    results: asyncio.Queue
    priority: int = 0
    seq: int = 0
    label: str = ""
    tenant: _Tenant | None = None
    pending: set[int] = field(default_factory=set)
    total: int = 0
    completed: int = 0
    dispatched: int = 0
    cancelled: bool = False
    failed: str | None = None
    finished: bool = False
    #: Wall-clock submission time — for STATUS display only.  All
    #: queue-age/latency math uses the monotonic pair below: a host
    #: clock step (NTP, manual set) must not corrupt scheduling metrics.
    submitted_at: float = 0.0
    #: Event-loop (monotonic) time of enqueue / finish.
    enqueued_at: float = 0.0
    finished_at: float | None = None
    #: Loop time of the first shard dispatch — the zero point of the
    #: completion-rate/ETA estimate (queue wait is not compute time).
    first_dispatch_at: float | None = None


@dataclass(eq=False)
class _Shard:
    """One unit of distributable work: ``(index, request)`` pairs."""

    id: int
    items: list
    job: _Job
    #: The cell key each item's cell must carry (``None`` where the
    #: coordinator keyed none); ``None`` checks no key.
    keys: list | None = None
    requeues: int = 0
    #: Loop time of the latest (re-)enqueue; feeds the queue-age gauge.
    enqueued_at: float = 0.0


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(self, writer: asyncio.StreamWriter, name: str):
        self.writer = writer
        self.name = name
        self.last_seen = 0.0
        self.inflight: dict[int, _Shard] = {}
        self.gets: asyncio.Queue = asyncio.Queue()
        self.assigner: asyncio.Task | None = None
        self.dropped = False
        #: Shards this connection completed — a worker that dies with
        #: zero is an *early death* (``worker_early_deaths``).
        self.completed = 0


class _ClientConn:
    """Coordinator-side state of one connected client."""

    def __init__(self, writer: asyncio.StreamWriter, name: str, tenant: str = ""):
        self.writer = writer
        self.name = name
        self.tenant = tenant
        self.task: asyncio.Task | None = None
        self.jobs: dict[str, tuple[_Job, asyncio.Task | None]] = {}
        # Session replies and job forwarders share one writer; without
        # the lock, two tasks awaiting drain() during a flow-control
        # pause trip asyncio's single-waiter assertion.
        self.write_lock = asyncio.Lock()


class _PendingShard:
    """One client-visible shard being assembled from store hits,
    in-flight subscriptions, and (a sub-shard of) dispatched items."""

    __slots__ = ("items", "rows", "keys", "dispatch", "id", "raw", "emitted", "missing")

    def __init__(self, items: list):
        self.items = items
        self.rows: list = [None] * len(items)
        self.keys: list = [None] * len(items)
        self.dispatch: list[int] = []  # positions shipped to workers
        self.id: int | None = None  # client-visible shard id
        self.raw = False  # opaque passthrough (no parsing)
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
    ``internal`` queue; the pump task folds in worker rows (checked on
    receipt, one per dispatched item, in order), publishes keyed cells
    (store + fan-out to waiters), and emits fully assembled shards as
    synthesized ``(RESULT, shard_id, rows)`` frames on the
    ``client_queue`` the session forwarder streams from.  Raw
    (unkeyable) shards are forwarded verbatim.
    """

    def __init__(
        self,
        coord: "Coordinator",
        client_queue: asyncio.Queue,
        *,
        priority: int,
        label: str,
        tenant: str = "",
    ):
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
        self.jobs: list[_Job] = []  # coordinator jobs (primary first)
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
                self._on_result(shard_id, payload)
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

    def _on_result(self, shard_id: int, rows: list) -> None:
        """Fold one dispatched shard's rows in: one ``(index, cell)``
        row per dispatched item, in order."""
        self.outstanding.discard(shard_id)
        ps = self.raw_ids.pop(shard_id, None)
        if ps is not None:
            ps.emitted = True
            self.client_queue.put_nowait((RESULT, ps.id, rows))
            self.unemitted -= 1
            self._maybe_release()
            return
        entry = self.dispatch_map.pop(shard_id, None)
        if entry is None:
            return
        kind, plan = entry
        if kind == "rescue":
            # Rows resolve purely through the publish path: our own
            # positions are waiter subscriptions on the rescued cells.
            for (_, cell), key in zip(rows, plan):
                self.coord._publish_cell(key, cell)
            return
        ps = plan
        for pos, (_, cell) in zip(ps.dispatch, rows):
            if ps.keys[pos] is not None:
                cell = self.coord._publish_cell(ps.keys[pos], cell)
            if ps.rows[pos] is None:
                ps.rows[pos] = (ps.items[pos][0], cell)
                ps.missing -= 1
        # Positions joined onto another job's in-flight cells fill in
        # when that cell is published.
        if ps.missing == 0 and not ps.emitted:
            self._emit(ps)

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
        await self._abort(CANCEL, None, None)
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
        keys = list(key_by_index.values())
        job, shard_ids = await self.coord.submit(
            [items],
            self.internal,
            priority=self.priority,
            label=f"{self.label}:rescue" if self.label else "rescue",
            tenant=self.tenant,
            keys=[keys],
        )
        self.jobs.append(job)
        self.dispatch_map[shard_ids[0]] = ("rescue", keys)
        self.outstanding.add(shard_ids[0])
        self._ensure_pump()


class Coordinator:
    """Asyncio server distributing client jobs' shards to pulling workers.

    All coroutines must run on one event loop; the only thread-safe
    surface is the :attr:`num_workers` counter.

    Parameters
    ----------
    host, port:
        Bind address.  An empty host binds all interfaces; port ``0``
        picks an ephemeral port (see :attr:`address` after
        :meth:`start`).
    heartbeat_timeout:
        Seconds of total silence after which a worker connection is
        presumed dead, closed, and its in-flight shards requeued.
        Workers are told to ping every third of this.
    cache_dir:
        Home of the result store (see the module docstring); ``None``
        disables it.  Workers are not told about it: each keeps its own
        setting (``work --cache-dir`` or ``REPRO_CACHE_DIR``).
    max_shard_requeues:
        How many worker deaths one shard may survive before it is
        treated as poisoned (a shard that OOM-kills or segfaults its
        worker dies without a ``FAIL`` message; without this cap it
        would cycle through the whole cluster and then hang the sweep).
        A death is charged to the shard the worker was evaluating only.
    secret:
        Shared authentication secret; when set, every connecting peer
        must answer the HMAC challenge (see the module docstring of
        :mod:`repro.engine.cluster.protocol`).  ``None`` disables the
        challenge leg entirely.
    history_limit:
        Finished jobs kept for status queries (oldest evicted first).
    ssl_context:
        A server-side TLS context (:func:`~repro.engine.cluster.
        protocol.server_tls_context`) wrapping every accepted
        connection; ``None`` (the default) serves cleartext.
    share_weights:
        Per-tenant fair-share weights (``{"tenant": 2.0}``): a
        weight-2 tenant dispatches two shards per round where a
        weight-1 tenant dispatches one.  Unlisted tenants weigh 1.
    max_client_jobs:
        Admission bound on one tenant's simultaneously unfinished
        jobs; ``0`` (the default) means unlimited.  Client sessions
        enforce it through :meth:`admission_error`.
    max_client_queued:
        Admission bound on one tenant's queued shards (dispatched
        shards do not count); ``0`` means unlimited.
    client_history_limit:
        Finished jobs any single tenant may occupy in the status
        history, so one chatty client cannot evict everyone else's
        records (capped by *history_limit* overall).
    """

    def __init__(
        self,
        host: str = "",
        port: int = 0,
        *,
        heartbeat_timeout: float = 15.0,
        cache_dir: str | None = None,
        max_shard_requeues: int = 3,
        secret: str | None = None,
        history_limit: int = 256,
        ssl_context: ssl.SSLContext | None = None,
        share_weights: dict[str, float] | None = None,
        max_client_jobs: int = 0,
        max_client_queued: int = 0,
        client_history_limit: int = 64,
    ):
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}",
            )
        if max_shard_requeues < 0:
            raise ValueError(
                f"max_shard_requeues must be >= 0, got {max_shard_requeues}",
            )
        if history_limit < 0:
            raise ValueError(
                f"history_limit must be >= 0, got {history_limit}",
            )
        if max_client_jobs < 0 or max_client_queued < 0:
            raise ValueError(
                "max_client_jobs/max_client_queued must be >= 0, got "
                f"{max_client_jobs}/{max_client_queued}",
            )
        if client_history_limit < 1:
            raise ValueError(
                f"client_history_limit must be >= 1, got {client_history_limit}",
            )
        for name, weight in (share_weights or {}).items():
            if not weight > 0:
                raise ValueError(
                    f"share weight of tenant {name!r} must be > 0, got {weight}",
                )
        self._host = host
        self._port = port
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._max_shard_requeues = int(max_shard_requeues)
        self._secret = secret or None
        self._history_limit = int(history_limit)
        self._ssl_context = ssl_context
        self._share_weights = dict(share_weights or {})
        self._max_client_jobs = int(max_client_jobs)
        self._max_client_queued = int(max_client_queued)
        self._client_history_limit = int(client_history_limit)
        # The shard queue: priority level -> tenant name -> heap of
        # (job seq, shard id, shard).  Dispatch picks the highest
        # level, then the queued tenant with the smallest share (ties
        # by tenant seq), then that tenant's heap order — job FIFO,
        # shard submission order.  Requeued shards re-enter under
        # their original key, which sorts them ahead of their job's
        # not-yet-started shards.
        self._levels: dict[int, dict[str, list[tuple[int, int, _Shard]]]] = {}
        self._queued = 0
        self._tenants: dict[str, _Tenant] = {}
        self._next_tenant_seq = 0
        self._cond: asyncio.Condition = asyncio.Condition()
        self._workers: set[_WorkerConn] = set()
        #: Workers whose assigner waits in _next_shard for a shard.
        self._waiting: set[_WorkerConn] = set()
        #: Every accepted connection's transport, by the task serving it,
        #: until that transport has closed.
        self._connections: dict[asyncio.Task, asyncio.BaseTransport] = {}
        self._jobs: dict[str, _Job] = {}
        self._history: OrderedDict[str, dict] = OrderedDict()
        self._server: asyncio.Server | None = None
        self._reaper: asyncio.Task | None = None
        self._next_shard_id = 0
        self._next_job_seq = 0
        self._closing = False
        self._address: tuple[str, int] | None = None
        self._completed_total = 0
        self._worker_early_deaths = 0
        #: Connections closed because a frame or message was malformed.
        self._protocol_errors = 0
        self._clients: set[_ClientConn] = set()
        self._result_store = None if cache_dir is None else DiskStore(cache_dir)
        self._cells: dict[str, _InflightCell] = {}
        self._assemblies: dict[str, _Assembly] = {}
        # Result-store accounting (METRICS): cells answered from the
        # store / joined onto an identical in-flight computation /
        # dispatched to workers.
        self._store_hits = 0
        self._store_joins = 0
        self._store_misses = 0
        # The store's memory front: key -> cell bytes, least recently
        # used first.
        self._memory: OrderedDict[str, bytes] = OrderedDict()
        self._memory_bytes = 0
        self._memory_hits = 0
        #: Updated in place by the hosting daemon's auto-prune loop
        #: (``None`` when no prune policy is configured).
        self.prune_stats: dict | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the server and start the heartbeat reaper."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host or None, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._reaper = asyncio.create_task(self._reap_loop())

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolved after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("coordinator has not been started")
        return self._address

    @property
    def num_workers(self) -> int:
        """Currently connected (handshaken) worker count."""
        return len(self._workers)

    async def aclose(self) -> None:
        """Stop serving: shut workers down, fail outstanding jobs."""
        self._closing = True
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
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            # Stop accepting.  Its wait_closed() comes last: from Python
            # 3.12.1 on, it also waits for every accepted connection.
            self._server.close()
        for conn in list(self._workers):
            try:
                await write_message(conn.writer, (SHUTDOWN,))
                if conn.writer.can_write_eof():
                    # TLS transports have no half-close; the SHUTDOWN
                    # message alone tells those workers to hang up.
                    conn.writer.write_eof()
            except (ConnectionError, OSError, RuntimeError):
                await self._drop(conn, requeue=False)
        # Let each worker read the SHUTDOWN and hang up itself.  Closing
        # the transport here instead would race the worker's in-flight
        # GET/PING: with those bytes unread in our receive buffer, the
        # close turns into an RST that discards the SHUTDOWN before the
        # worker sees it, and the worker burns its whole reconnect
        # budget against a coordinator that is gone.  The half-close
        # above says "no more shards" while each connection's reader
        # task keeps draining; the worker replies by closing, the reader
        # sees EOF and drops the connection cleanly.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _SHUTDOWN_GRACE
        while self._workers and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for conn in list(self._workers):
            await self._drop(conn, requeue=False)
        # Withdraw everything still queued (jobs submitted after the
        # last worker finished, or never dispatched at all) before
        # failing the jobs, so per-tenant gauges end at zero.
        self._levels.clear()
        self._queued = 0
        for tenant in self._tenants.values():
            tenant.queued = 0
        for job in list(self._jobs.values()):
            job.failed = job.failed or "coordinator closed"
            self._finish_job(job)
            job.results.put_nowait((SHUTDOWN, None, None))
        # Job queues got SHUTDOWN above; closing the transports EOFs the
        # session read loops, which then unwind on their own.  Only the
        # sessions streaming a live job are waited for, so their clients
        # read the SHUTDOWN.  An idle one (a client keeping its
        # connection between jobs) has nobody reading it to answer a TLS
        # close; it is aborted below with the rest.
        sessions = [c.task for c in self._clients if c.jobs and c.task is not None]
        for conn in list(self._clients):
            try:
                await self._send(conn, (SHUTDOWN,))
            except (ConnectionError, OSError):
                pass
            conn.writer.close()
        self._clients.clear()
        if sessions:
            await asyncio.wait(sessions, timeout=5.0)
        # Then every accepted connection still open (handshakes in
        # progress or rejected, sessions closed for idleness, stragglers)
        # is aborted, and its task awaited, so no transport is left
        # closing when the loop stops.  The tasks are awaited, not
        # cancelled: cancelling a start_server connection task trips
        # asyncio's stream callback on 3.11.
        for transport in self._connections.values():
            transport.abort()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=5.0)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        shard_items: list[list],
        results: asyncio.Queue,
        *,
        priority: int = 0,
        label: str = "",
        tenant: str = "",
        keys: list[list] | None = None,
    ) -> tuple[_Job, list[int]]:
        """Queue one job of shards; results stream into *results*.

        Each element of *shard_items* is one shard's ``(index,
        request)`` list, and each element of *keys* (when given) the
        cell key its items' cells must carry, ``None`` where unkeyed.
        Completed shards arrive on *results* as ``(RESULT, shard_id,
        rows)`` tuples, one ``(index, cell)`` row per item, every cell
        checked; a worker-crashed shard
        as ``(FAIL, shard_id, message)``; a cancellation as ``(CANCEL,
        None, None)``; coordinator shutdown as ``(SHUTDOWN, None,
        None)``.  Larger *priority* values are scheduled first;
        *tenant* names the submitting client for fair-share accounting
        (unnamed submissions share the default tenant).
        """
        if self._closing:
            raise RuntimeError("coordinator is closed")
        owner = self._tenant(tenant)
        owner.jobs_submitted += 1
        owner.active_jobs += 1
        job = _Job(
            id=f"job-{self._next_job_seq:06d}",
            results=results,
            priority=int(priority),
            seq=self._next_job_seq,
            label=label,
            tenant=owner,
            submitted_at=time.time(),
            enqueued_at=asyncio.get_running_loop().time(),
        )
        self._next_job_seq += 1
        shard_ids: list[int] = []
        async with self._cond:
            for items, item_keys in zip(
                shard_items, itertools.repeat(None) if keys is None else keys
            ):
                shard = _Shard(self._alloc_shard_id(), items, job, item_keys)
                job.pending.add(shard.id)
                shard_ids.append(shard.id)
                self._push(shard)
            job.total = len(shard_ids)
            if shard_ids:
                self._jobs[job.id] = job
            else:
                self._finish_job(job)
            self._cond.notify_all()
        return job, shard_ids

    async def cancel(self, job: _Job) -> None:
        """Drop a job's queued shards; in-flight results are discarded.

        The job's result queue receives a ``(CANCEL, None, None)``
        notice so a consumer streaming its results (possibly on another
        connection than the canceller) observes the cancellation.
        """
        if job.finished or job.cancelled:
            return
        job.cancelled = True
        async with self._cond:
            self._discard_queued(job)
        self._finish_job(job)
        job.results.put_nowait((CANCEL, None, None))

    def jobs_snapshot(self, job_id: str | None = None) -> list[dict]:
        """Status records of live and recently finished jobs.

        Records are dicts with ``job``, ``state`` (``queued`` /
        ``running`` / ``done`` / ``failed`` / ``cancelled``),
        ``priority``, ``label``, ``shards``, ``completed``,
        ``submitted_at`` (wall clock, display only) and ``age``
        (seconds since enqueue on the loop's monotonic clock, frozen at
        finish) keys, in submission order.  Passing *job_id* filters to
        that job (empty list when unknown).
        """
        records = list(self._history.values())
        records.extend(self._job_record(job) for job in self._jobs.values())
        records.sort(key=lambda r: r["job"])
        if job_id is not None:
            records = [r for r in records if r["job"] == job_id]
        return records

    def load_snapshot(self) -> dict:
        """Worker-pool and queue gauges, as one flat dict.

        Keys: ``workers`` (connected), ``busy`` (with shards in
        flight), ``queued_shards``, ``inflight_shards``,
        ``live_jobs``, ``oldest_queued_age`` (seconds the longest-waiting
        queued shard has sat undispatched), ``completed_shards`` (total
        ever completed), ``worker_early_deaths`` (workers that
        disconnected without completing a single shard, while the
        coordinator was not closing) and ``protocol_errors``
        (connections closed on a refused TLS handshake, or on a frame
        or message that raised :class:`ProtocolError`).  It is the
        ``pool`` section of :meth:`service_snapshot` and
        :meth:`metrics_snapshot`, so an external monitor sees the same
        numbers through STATUS and METRICS.
        """
        workers = list(self._workers)
        return {
            "workers": len(workers),
            "busy": sum(1 for conn in workers if conn.inflight),
            "queued_shards": self._queued,
            "inflight_shards": sum(len(conn.inflight) for conn in workers),
            "live_jobs": len(self._jobs),
            "oldest_queued_age": self._oldest_queued_age(),
            "completed_shards": self._completed_total,
            "worker_early_deaths": self._worker_early_deaths,
            "protocol_errors": self._protocol_errors,
        }

    def _oldest_queued_age(self) -> float:
        """Seconds the longest-queued shard has waited (0.0 when empty).

        A linear scan of the queue — bounded by queue depth and run
        once per snapshot, not per dispatch.
        """
        oldest: float | None = None
        for level in self._levels.values():
            for heap in level.values():
                for _, _, shard in heap:
                    if oldest is None or shard.enqueued_at < oldest:
                        oldest = shard.enqueued_at
        if oldest is None:
            return 0.0
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # off-loop introspection (tests)
            return 0.0
        return max(0.0, now - oldest)

    def metrics_snapshot(self) -> dict:
        """The machine-readable observability document (METRICS, v6).

        ``{"schema": "repro.metrics/v1", "time", "queue": {"depth",
        "oldest_age"}, "jobs": [...], "clients": [...], "pool": {...},
        "store": {...}}``.  Each live job's record extends the STATUS
        record with ``dispatched``, ``remaining``, ``progress``
        (completed fraction), ``rate`` (shards/second since first
        dispatch) and ``eta`` (seconds to finish at that rate; ``None``
        until the first completion).  Finished jobs from the status history are
        included with ``eta`` 0 so a watcher sees them land.  ``store``
        carries the result store's hit counters, its count of corrupt
        (unreadable) entries, its memory front's hits, cells and cell
        bytes (``memory_hits``, ``memory_cells``, ``memory_bytes``),
        and prune stats.
        """
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # off-loop introspection (tests)
            now = None
        jobs = []
        for record in self._history.values():
            record = dict(record)
            record.setdefault("dispatched", record["completed"])
            record["remaining"] = 0
            record["progress"] = 1.0 if record["state"] == "done" else (
                record["completed"] / record["shards"] if record["shards"] else 1.0
            )
            record["rate"] = None
            record["eta"] = 0.0
            jobs.append(record)
        for job in self._jobs.values():
            record = self._job_record(job)
            remaining = len(job.pending)
            record["dispatched"] = job.dispatched
            record["remaining"] = remaining
            record["progress"] = (
                job.completed / job.total if job.total else 1.0
            )
            rate = eta = None
            if job.first_dispatch_at is not None and job.completed and now is not None:
                elapsed = max(now - job.first_dispatch_at, 1e-9)
                rate = job.completed / elapsed
                eta = remaining / rate
            record["rate"] = rate
            record["eta"] = eta
            jobs.append(record)
        jobs.sort(key=lambda r: r["job"])
        pool = self.load_snapshot()
        looked_up = self._store_hits + self._store_joins + self._store_misses
        return {
            "schema": "repro.metrics/v1",
            "time": time.time(),
            "queue": {
                "depth": self._queued,
                "oldest_age": pool["oldest_queued_age"],
            },
            "jobs": jobs,
            "clients": self.clients_snapshot(),
            "pool": pool,
            "store": {
                "enabled": self._result_store is not None,
                "hits": self._store_hits,
                "inflight_joins": self._store_joins,
                "misses": self._store_misses,
                "corrupt": (
                    0 if self._result_store is None else self._result_store.corrupt
                ),
                "hit_rate": (
                    None
                    if not looked_up
                    else (self._store_hits + self._store_joins) / looked_up
                ),
                "inflight_cells": len(self._cells),
                "memory_hits": self._memory_hits,
                "memory_cells": len(self._memory),
                "memory_bytes": self._memory_bytes,
                "prune": self.prune_stats,
            },
        }

    def clients_snapshot(self) -> list[dict]:
        """Per-tenant share/quota counters, in first-seen order.

        One record per tenant that ever submitted (or was rejected):
        ``client``, ``weight``, ``share`` (the weighted deficit),
        ``queued_shards``, ``active_jobs``, ``jobs_submitted``,
        ``shards_dispatched``, ``shards_completed``, ``rejected``.
        """
        return [
            {
                "client": tenant.name,
                "weight": tenant.weight,
                "share": round(tenant.share, 6),
                "queued_shards": tenant.queued,
                "active_jobs": tenant.active_jobs,
                "jobs_submitted": tenant.jobs_submitted,
                "shards_dispatched": tenant.shards_dispatched,
                "shards_completed": tenant.shards_completed,
                "rejected": tenant.rejected,
            }
            for tenant in sorted(self._tenants.values(), key=lambda t: t.seq)
        ]

    def service_snapshot(self, job_id: str | None = None) -> dict:
        """The full STATUS document: jobs, clients and pool gauges.

        ``{"jobs": jobs_snapshot(job_id), "clients":
        clients_snapshot(), "pool": load_snapshot()}`` — what the daemon
        sends in ``STATUS_REPLY``.
        """
        return {
            "jobs": self.jobs_snapshot(job_id),
            "clients": self.clients_snapshot(),
            "pool": self.load_snapshot(),
        }

    async def wait_for_workers(self, count: int, timeout: float | None = None) -> None:
        """Block until *count* workers are connected.

        Raises :class:`TimeoutError` if *timeout* seconds elapse first.
        """

        async def enough() -> None:
            async with self._cond:
                await self._cond.wait_for(lambda: len(self._workers) >= count)

        await asyncio.wait_for(enough(), timeout)

    # ------------------------------------------------------------------
    # Job bookkeeping
    # ------------------------------------------------------------------
    def _alloc_shard_id(self) -> int:
        """Next shard id — one counter for every id a client ever sees,
        so synthesized shards (result-store hits) never collide with
        dispatched ones."""
        sid = self._next_shard_id
        self._next_shard_id += 1
        return sid

    def _tenant(self, name: str) -> _Tenant:
        """The accounting record of *name* (created on first use)."""
        name = name or DEFAULT_TENANT
        tenant = self._tenants.get(name)
        if tenant is None:
            if len(self._tenants) >= _TENANT_LIMIT:
                self._evict_tenants()
            tenant = _Tenant(
                name=name,
                seq=self._next_tenant_seq,
                weight=float(self._share_weights.get(name, 1.0)),
            )
            self._next_tenant_seq += 1
            self._tenants[name] = tenant
        return tenant

    def _evict_tenants(self) -> None:
        """Drop the oldest fully idle tenant records (bookkeeping cap)."""
        idle = [
            t
            for t in self._tenants.values()
            if not t.queued and not t.active_jobs and not t.history
        ]
        idle.sort(key=lambda t: t.seq)
        for tenant in idle[: max(1, len(idle) // 2)]:
            del self._tenants[tenant.name]

    def admission_error(self, tenant_name: str, shard_count: int) -> str | None:
        """Why a *shard_count*-shard submission by *tenant_name* must be
        refused under the per-client quotas, or ``None`` to admit it.

        A client session answers a non-``None`` reason with a
        ``REJECTED`` reply.
        """
        if not self._max_client_jobs and not self._max_client_queued:
            return None
        tenant = self._tenant(tenant_name)
        if self._max_client_jobs and tenant.active_jobs >= self._max_client_jobs:
            return (
                f"client {tenant.name!r} already has {tenant.active_jobs} "
                f"unfinished job(s) (limit {self._max_client_jobs}); wait "
                f"for one to finish or cancel it"
            )
        if (
            self._max_client_queued
            and tenant.queued + shard_count > self._max_client_queued
        ):
            return (
                f"client {tenant.name!r} would have "
                f"{tenant.queued + shard_count} queued shard(s) "
                f"(limit {self._max_client_queued}); submit smaller jobs "
                f"or wait for queued work to dispatch"
            )
        return None

    def _push(self, shard: _Shard) -> None:
        """Queue one shard under its job's priority level and tenant.

        Must run under ``self._cond``.  A tenant entering the queued
        set has its share clamped up to the minimum among tenants
        already queued: being idle banks no scheduling credit, so a
        returning (or brand-new) tenant is served next round without
        first starving everyone who kept the pool busy meanwhile.
        """
        job = shard.job
        tenant = job.tenant
        level = self._levels.setdefault(job.priority, {})
        heap = level.get(tenant.name)
        if heap is None:
            heap = level[tenant.name] = []
        if not tenant.queued:
            floor = min(
                (t.share for t in self._tenants.values() if t.queued),
                default=0.0,
            )
            tenant.share = max(tenant.share, floor)
        try:
            shard.enqueued_at = asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - off-loop tests
            shard.enqueued_at = 0.0
        heapq.heappush(heap, (job.seq, shard.id, shard))
        tenant.queued += 1
        self._queued += 1

    def _pop_shard(self) -> _Shard | None:
        """Dequeue the next shard to dispatch (``None`` when empty).

        Must run under ``self._cond``.  Highest priority level first;
        within it, the queued tenant with the smallest ``(share,
        seq)``; within the tenant, heap order (job FIFO, shard
        submission order).  The winner's share grows by ``1/weight``,
        which is the whole deficit-round-robin scheduler.
        """
        if not self._queued:
            return None
        priority = max(self._levels)
        level = self._levels[priority]
        name = min(
            level,
            key=lambda n: (self._tenants[n].share, self._tenants[n].seq),
        )
        heap = level[name]
        _, _, shard = heapq.heappop(heap)
        if not heap:
            del level[name]
            if not level:
                del self._levels[priority]
        tenant = self._tenants[name]
        tenant.queued -= 1
        tenant.share += 1.0 / tenant.weight
        tenant.shards_dispatched += 1
        self._queued -= 1
        return shard

    def _discard_queued(self, job: _Job) -> None:
        """Remove a job's still-queued shards (cancellation path).

        Must run under ``self._cond``.
        """
        level = self._levels.get(job.priority)
        heap = None if level is None else level.get(job.tenant.name)
        if not heap:
            return
        survivors = [entry for entry in heap if entry[2].job is not job]
        removed = len(heap) - len(survivors)
        if not removed:
            return
        heapq.heapify(survivors)
        if survivors:
            level[job.tenant.name] = survivors
        else:
            del level[job.tenant.name]
            if not level:
                del self._levels[job.priority]
        job.tenant.queued -= removed
        self._queued -= removed

    def _job_record(self, job: _Job) -> dict:
        if job.failed is not None:
            state = "failed"
        elif job.cancelled:
            state = "cancelled"
        elif not job.pending:
            state = "done"
        elif job.dispatched or job.completed:
            state = "running"
        else:
            state = "queued"
        # Age is monotonic-minus-monotonic: a wall-clock step between
        # enqueue and now cannot make it negative or jump.
        end = job.finished_at
        if end is None:
            try:
                end = asyncio.get_running_loop().time()
            except RuntimeError:  # off-loop introspection (tests)
                end = job.enqueued_at
        return {
            "job": job.id,
            "state": state,
            "priority": job.priority,
            "client": None if job.tenant is None else job.tenant.name,
            "label": job.label,
            "shards": job.total,
            "completed": job.completed,
            "submitted_at": job.submitted_at,
            "age": max(0.0, end - job.enqueued_at),
        }

    def _finish_job(self, job: _Job) -> None:
        self._jobs.pop(job.id, None)
        if job.finished:
            return
        job.finished = True
        try:
            job.finished_at = asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - off-loop teardown
            job.finished_at = job.enqueued_at
        tenant = job.tenant
        if tenant is not None:
            tenant.active_jobs = max(0, tenant.active_jobs - 1)
        if self._history_limit:
            self._history[job.id] = self._job_record(job)
            while len(self._history) > self._history_limit:
                evicted, _ = self._history.popitem(last=False)
                for t in self._tenants.values():
                    t.history.pop(evicted, None)
            if tenant is not None:
                # Bound any single tenant's slice of the history, so a
                # flooding client cannot evict everyone else's records.
                tenant.history[job.id] = None
                while len(tenant.history) > self._client_history_limit:
                    oldest, _ = tenant.history.popitem(last=False)
                    self._history.pop(oldest, None)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one accepted connection, then see its transport closed.

        The connection stays in ``_connections`` until its transport
        has closed, so :meth:`aclose` can abort and await whatever is
        still open: a transport still closing when the event loop stops
        would never close its socket.  With a TLS context the handshake
        runs here, so a peer it turns away counts under
        ``protocol_errors``.
        """
        task = asyncio.current_task()
        self._connections[task] = writer.transport
        handshake_failed = False
        try:
            if self._closing:  # accepted just before the close
                return
            if self._ssl_context is not None:
                try:
                    await writer.start_tls(
                        self._ssl_context,
                        ssl_handshake_timeout=self._heartbeat_timeout,
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    handshake_failed = True
                    if isinstance(exc, ssl.SSLError):  # refused by TLS
                        self._protocol_errors += 1
                    return
                self._connections[task] = writer.transport
            await self._serve_connection(reader, writer)
        finally:
            writer.close()
            # asyncio closes the transport of a failed handshake itself
            # but tells the stream only when TLS refused the peer, so
            # after a timeout or a reset wait_closed would never return.
            if not handshake_failed:
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
            del self._connections[task]

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        name = f"{peer[0]}:{peer[1]}" if peer else "peer"
        # Frames before authentication are capped, so an unknown peer
        # cannot make the daemon buffer a large one.
        try:
            message = await asyncio.wait_for(
                read_message(reader, MAX_HANDSHAKE_BYTES),
                timeout=self._heartbeat_timeout,
            )
        except ProtocolError:
            self._protocol_errors += 1
            return
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return
        reject = self._handshake_error(message)
        if reject is None and self._secret is not None:
            reject = await self._challenge(reader, writer)
        if reject is None:
            info = message[3] if isinstance(message[3], dict) else {}
            role = info.get("role", "worker")
            if role == "worker":
                await self._serve_worker(reader, writer, name)
                return
            if role == "client":
                await self._serve_client(reader, writer, name, info)
                return
            reject = f"unknown peer role {role!r}"
        try:
            await write_message(writer, (REJECT, reject))
        except (ConnectionError, OSError):
            pass

    async def _challenge(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> str | None:
        """Run the HMAC leg; the rejection reason, or ``None`` on success."""
        nonce = secrets.token_hex(32)
        try:
            await write_message(writer, (CHALLENGE, nonce))
            reply = await asyncio.wait_for(
                read_message(reader, MAX_HANDSHAKE_BYTES),
                timeout=self._heartbeat_timeout,
            )
        except ProtocolError:
            self._protocol_errors += 1
            return _AUTH_MISMATCH
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return _AUTH_MISMATCH
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or reply[0] != AUTH
            or not isinstance(reply[1], str)
        ):
            return _AUTH_MISMATCH
        expected = auth_digest(self._secret, nonce)
        if not hmac.compare_digest(expected, reply[1]):
            return _AUTH_MISMATCH
        return None

    async def _serve_worker(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        name: str,
    ) -> None:
        try:
            await write_message(
                writer,
                (WELCOME, {"heartbeat_interval": self._heartbeat_timeout / 3.0}),
            )
        except (ConnectionError, OSError):
            return

        conn = _WorkerConn(writer, name)
        conn.last_seen = asyncio.get_running_loop().time()
        async with self._cond:
            self._workers.add(conn)
            self._cond.notify_all()
        conn.assigner = asyncio.create_task(self._assign_loop(conn))
        try:
            while True:
                message = await read_message(reader)
                if message is None or not isinstance(message, tuple) or not message:
                    break
                conn.last_seen = asyncio.get_running_loop().time()
                kind = message[0]
                if kind == GET:
                    conn.gets.put_nowait(True)
                elif kind == RESULT:
                    self._complete(conn, message[1], message[2])
                elif kind == FAIL:
                    self._fail(conn, message[1], message[2])
                elif kind == PING:
                    pass
                else:
                    break
        except ProtocolError:
            self._protocol_errors += 1
        except (ConnectionError, OSError):
            pass
        finally:
            await self._drop(conn, requeue=True)

    @staticmethod
    def _handshake_error(message: object) -> str | None:
        """Why *message* is not an acceptable ``HELLO`` (``None`` if it is)."""
        if (
            not isinstance(message, tuple)
            or len(message) != 4
            or message[0] != HELLO
        ):
            return "expected a HELLO handshake"
        if message[1] != MAGIC:
            return f"unrecognised magic {message[1]!r}"
        if message[2] != PROTOCOL_VERSION:
            return (
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, peer speaks {message[2]!r}; "
                f"update the peer installation"
            )
        info = message[3] if isinstance(message[3], dict) else {}
        peer_pickle = info.get("pickle")
        if peer_pickle != WIRE_PICKLE_PROTOCOL:
            # Refused here, at the handshake, because a mismatched
            # pickle protocol would otherwise surface as an opaque
            # mid-frame unpickling crash on whichever side is older.
            return (
                f"wire pickle protocol mismatch: coordinator pins "
                f"{WIRE_PICKLE_PROTOCOL}, peer speaks {peer_pickle!r}; "
                f"update the peer installation"
            )
        return None

    async def _assign_loop(self, conn: _WorkerConn) -> None:
        """Serve this worker's ``GET``s from the shared shard queue."""
        try:
            while True:
                await conn.gets.get()
                shard = await self._next_shard(conn)
                # No await between dequeue and registration: a
                # cancellation cannot orphan the shard.
                conn.inflight[shard.id] = shard
                shard.job.dispatched += 1
                if shard.job.first_dispatch_at is None:
                    shard.job.first_dispatch_at = (
                        asyncio.get_running_loop().time()
                    )
                await write_message(conn.writer, (SHARD, shard.id, shard.items))
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            # The inbound loop observes the same broken pipe and runs
            # _drop, which requeues conn.inflight (including the shard
            # we just failed to send).
            conn.writer.close()

    async def _next_shard(self, conn: _WorkerConn) -> _Shard:
        """The next queued shard for *conn*, once there is one for it.

        A worker still holding a shard (its ``GET`` asks ahead) gets
        another only while more shards are queued than there are idle
        workers waiting: the oldest ``GET`` must not take a new one-shard
        job from a busy worker while another worker idles.  Nothing is
        handed out once the coordinator is closing.
        """

        def ready() -> bool:
            if self._closing:
                return False
            if not conn.inflight:
                return self._queued > 0
            idle = sum(1 for other in self._waiting if not other.inflight)
            return self._queued > idle

        async with self._cond:
            self._waiting.add(conn)
            try:
                await self._cond.wait_for(ready)
            finally:
                self._waiting.discard(conn)
            return self._pop_shard()

    def _complete(self, conn: _WorkerConn, shard_id: int, rows: list) -> None:
        """Hand a worker's ``RESULT`` rows to the shard's job.

        Raises :class:`ProtocolError`, completing nothing, unless the
        rows answer the shard: one per item, each cell well-formed and
        filed under its item's key wherever the shard has one.  The
        caller then closes the connection, which requeues the shard.
        """
        self._check_rows(conn.inflight.get(shard_id), rows)
        shard = conn.inflight.pop(shard_id, None)
        if shard is None:
            return  # stale: shard was requeued away from this worker
        conn.completed += 1
        job = shard.job
        if job.cancelled or shard.id not in job.pending:
            return  # duplicate completion after a requeue
        job.pending.discard(shard.id)
        job.completed += 1
        self._completed_total += 1
        if job.tenant is not None:
            job.tenant.shards_completed += 1
        if not job.pending:
            self._finish_job(job)
        job.results.put_nowait((RESULT, shard_id, rows))

    @staticmethod
    def _check_rows(shard: _Shard | None, rows: list) -> None:
        """Raise :class:`ProtocolError` unless *rows* answer *shard*
        (``None`` for a shard this connection does not hold, whose cells
        are checked all the same)."""
        if shard is not None and len(rows) != len(shard.items):
            raise ProtocolError(
                f"{len(rows)} result rows for the {len(shard.items)} items "
                f"of shard {shard.id}"
            )
        keys = (None if shard is None else shard.keys) or itertools.repeat(None)
        for (index, cell), key in zip(rows, keys):
            try:
                decode_cell(cell, key)
            except CellError as exc:
                raise ProtocolError(f"malformed cell for item {index}: {exc}") from None

    def _fail(self, conn: _WorkerConn, shard_id: int, message: str) -> None:
        shard = conn.inflight.pop(shard_id, None)
        if shard is None:
            return
        job = shard.job
        if job.cancelled or shard.id not in job.pending:
            return
        job.pending.discard(shard.id)
        job.failed = str(message)
        if not job.pending:
            self._finish_job(job)
        job.results.put_nowait((FAIL, shard_id, message))

    async def _drop(self, conn: _WorkerConn, *, requeue: bool) -> None:
        """Unregister a connection, requeueing its in-flight shards.

        Only the oldest of them, the one the worker was evaluating, is
        charged a requeue: a shard it had asked for ahead never ran, so
        it cannot have killed the worker.
        """
        if conn.dropped:
            return
        conn.dropped = True
        # No longer an idle worker the others leave shards for.
        self._waiting.discard(conn)
        if requeue and not conn.completed and not self._closing:
            # Connected, never finished a shard, gone again.  An exit
            # the coordinator's own close asked for is not a death.
            self._worker_early_deaths += 1
        if conn.assigner is not None:
            conn.assigner.cancel()
        conn.writer.close()
        async with self._cond:
            self._workers.discard(conn)
            evaluating = next(iter(conn.inflight.values()), None)
            for shard in conn.inflight.values():
                job = shard.job
                if not requeue or job.cancelled or shard.id not in job.pending:
                    continue
                if shard is evaluating:
                    shard.requeues += 1
                if shard.requeues > self._max_shard_requeues:
                    # A shard that keeps killing its workers (OOM, native
                    # segfault — death without a FAIL message) must not
                    # cycle through the whole cluster, so it fails the job.
                    job.pending.discard(shard.id)
                    job.failed = (
                        f"shard requeued {shard.requeues} times after "
                        f"worker deaths; treating it as poisoned"
                    )
                    if not job.pending:
                        self._finish_job(job)
                    job.results.put_nowait((FAIL, shard.id, job.failed))
                    continue
                # Ahead of the job's remaining shards: interrupted work
                # has already waited once.
                self._push(shard)
            conn.inflight.clear()
            self._cond.notify_all()

    async def _reap_loop(self) -> None:
        """Close connections silent for longer than the heartbeat timeout."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self._heartbeat_timeout / 4.0)
            deadline = loop.time() - self._heartbeat_timeout
            for conn in list(self._workers):
                if conn.last_seen < deadline:
                    # Abort the transport; the connection's inbound loop
                    # sees EOF and requeues via _drop.
                    conn.writer.close()

    # ------------------------------------------------------------------
    # Result store / cross-job single-flight
    # ------------------------------------------------------------------
    @staticmethod
    def _cell_key(item, memo: dict) -> str | None:
        """Stable content key of one ``(index, request)`` shard item,
        or ``None`` for opaque/unkeyable payloads (pure passthrough).
        *memo* is the submission's :func:`cell_key` memo."""
        if not (isinstance(item, tuple) and len(item) == 2):
            return None
        return cell_key(item[1], memo)

    def _load_cell(self, key: str) -> bytes | None:
        """The bytes of the stored cell under *key*, or ``None``.

        A remembered cell is served from memory while its file is still
        there, with one mtime bump so :func:`~repro.engine.diskcache.prune`
        sees the use; a cell whose file is gone is forgotten and looked
        up on disk like any other.  A cell the disk returns is
        remembered.
        """
        cell = self._memory.get(key)
        if cell is not None:
            if self._result_store.touch(key):
                self._memory.move_to_end(key)
                self._memory_hits += 1
                return cell
            del self._memory[key]
            self._memory_bytes -= len(cell)
        cell = self._result_store.load_bytes(key)
        if cell is not None:
            self._remember(key, cell)
        return cell

    def _remember(self, key: str, cell: bytes) -> None:
        """Keep *cell* in memory, the least recently used cells making
        room, unless it alone is larger than the whole budget."""
        if len(cell) > _MEMORY_BYTES:
            return
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= len(old)
        self._memory[key] = cell
        self._memory_bytes += len(cell)
        while self._memory_bytes > _MEMORY_BYTES:
            _, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= len(evicted)

    def _publish_cell(self, key: str, cell):
        """Persist one computed cell as received, remember a copy of its
        bytes and fan it out to every subscriber; returns the cell as
        kept (the copy once stored)."""
        if self._result_store.store(key, cell):
            cell = bytes(cell)  # not a view pinning the whole RESULT frame
            self._remember(key, cell)
        inflight = self._cells.pop(key, None)
        if inflight is None:
            return cell
        for asm, ps, pos, index in inflight.waiters:
            if asm.done or ps.emitted or ps.rows[pos] is not None:
                continue
            ps.rows[pos] = (index, cell)
            ps.missing -= 1
            if ps.missing == 0:
                asm._emit(ps)
        return cell

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
        self,
        payloads: list[list],
        results: asyncio.Queue,
        *,
        priority: int = 0,
        label: str = "",
        tenant: str = "",
    ) -> tuple[_Job, list[int]]:
        """Queue one client job, serving repeat cells from the result
        store and deduplicating identical in-flight cells across jobs.

        Falls back to plain :meth:`submit` when no cache directory is
        configured.  Returns ``(job, client_shard_ids)``; the ids cover
        *every* submitted shard (dispatched or not), while the job's
        STATUS record counts only dispatched shards.
        """
        if self._result_store is None:
            return await self.submit(
                payloads, results, priority=priority, label=label, tenant=tenant
            )
        asm = _Assembly(self, results, priority=priority, label=label, tenant=tenant)
        # Everything up to the submit below runs without suspension, so
        # the store lookups, in-flight subscriptions and client-visible
        # shard ids are established atomically with respect to other
        # submissions (and to publishes resolving our subscriptions).
        # The items of one decoded submission share their instance
        # objects, so the key memo builds each instance payload once.
        memo: dict = {}
        for items in payloads:
            ps = _PendingShard(items)
            ps.id = self._alloc_shard_id()
            for pos, item in enumerate(items):
                key = self._cell_key(item, memo)
                if key is None:
                    ps.dispatch.append(pos)
                    continue
                ps.keys[pos] = key
                cell = self._load_cell(key)
                if cell is not None:
                    self._store_hits += 1
                    ps.rows[pos] = (item[0], cell)
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
            # payload unparsed: the coordinator stays agnostic to
            # non-request workloads.
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
            [[ps.items[pos] for pos in ps.dispatch] for ps in dispatched],
            asm.internal,
            priority=priority,
            label=label,
            tenant=tenant,
            keys=[[ps.keys[pos] for pos in ps.dispatch] for ps in dispatched],
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

    async def cancel_job(self, job_id: object) -> bool:
        """Cancel a client job by id; ``False`` when unknown or finished.

        A store-backed submission can outlive its (possibly already
        finished) coordinator job while it waits on shared in-flight
        cells, so cancelling goes through its assembly when it has one.
        """
        if not isinstance(job_id, str):
            return False
        asm = self._assemblies.get(job_id)
        if asm is not None:
            await asm.cancel()
            return True
        job = self._jobs.get(job_id)
        if job is None:
            return False
        await self.cancel(job)
        return True

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
                (WELCOME, {"heartbeat_interval": self._heartbeat_timeout / 3.0}),
            )
            while True:
                # Clients must stay audible (PING while waiting on a
                # long job); a silent connection is treated as dead so
                # its jobs stop occupying the worker pool.
                try:
                    message = await asyncio.wait_for(
                        read_message(reader), timeout=self._heartbeat_timeout
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
                    await self._send(conn, (METRICS_REPLY, self.metrics_snapshot()))
                elif kind == CANCEL and len(message) == 2:
                    ok = await self.cancel_job(message[1])
                    await self._send(conn, (CANCEL_REPLY, message[1], ok))
                else:
                    break
        except ProtocolError:
            self._protocol_errors += 1
        except (ConnectionError, OSError):
            pass
        finally:
            self._clients.discard(conn)
            for job, forwarder in list(conn.jobs.values()):
                if forwarder is not None:
                    forwarder.cancel()
                await self.cancel_job(job.id)
            conn.jobs.clear()

    async def _client_submit(
        self, conn: _ClientConn, payloads: object, options: object
    ) -> None:
        options = options if isinstance(options, dict) else {}
        if not isinstance(payloads, list) or not all(
            isinstance(shard, list) for shard in payloads
        ):
            raise ProtocolError("SUBMIT payload must be a list of shard lists")
        priority = options.get("priority", 0)
        if not isinstance(priority, int):
            raise ProtocolError(f"SUBMIT priority must be an int, not {priority!r}")
        # Admission control: a client over its job/backlog quota gets a
        # clean REJECTED (with the reason) instead of queue admission —
        # its session stays open, and other tenants' work is untouched.
        reason = self.admission_error(conn.tenant, len(payloads))
        if reason is not None:
            self._tenant(conn.tenant).rejected += 1
            await self._send(conn, (REJECTED, reason))
            return
        results: asyncio.Queue = asyncio.Queue()
        job, shard_ids = await self.submit_job(
            payloads,
            results,
            priority=priority,
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

    async def _forward_job(
        self, conn: _ClientConn, job: _Job, results: asyncio.Queue, remaining: set
    ) -> None:
        """Stream one job's shard queue to its submitting client."""
        try:
            while remaining:
                kind, shard_id, payload = await results.get()
                if kind == RESULT:
                    remaining.discard(shard_id)
                    await self._send(conn, (JOB_RESULT, job.id, shard_id, payload))
                elif kind == FAIL:
                    await self._send(conn, (JOB_FAIL, job.id, shard_id, payload))
                    # Withdraw the job's other shards: it already failed.
                    await self.cancel_job(job.id)
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
