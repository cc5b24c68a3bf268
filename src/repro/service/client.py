"""Blocking-socket client of a standing sweep service.

A :class:`ServiceClient` talks to a :class:`~repro.service.daemon.
ServiceDaemon` over the cluster wire protocol's client message set.
Each job holds one connection for its life: results stream back on it,
a heartbeat thread keeps it audible, and closing it early cancels the
job.  A connection whose job stream ended with ``JOB_DONE``, or that
carried a ``status``/``metrics``/``cancel`` request, goes back to the
client, and the next operation reuses it instead of connecting and
handshaking again.  A connection is reused only while nothing is
readable on it (a daemon that restarted or hung up has left an EOF or
a ``SHUTDOWN`` there) and for less than the ``heartbeat_interval`` the
daemon announced since it went idle (the daemon drops a client that is
silent for three).  Concurrent operations each take a connection of
their own, so a monitoring call never interleaves with a result stream.

>>> client = ServiceClient("head-node", 7077)
>>> with client.submit(shards, priority=5) as handle:   # doctest: +SKIP
...     for shard_id, payload in handle.results():
...         consume(payload)
"""

from __future__ import annotations

import os
import select
import socket
import ssl
import threading
import time

from ..engine.cluster.protocol import (
    CANCEL,
    CANCEL_REPLY,
    CHALLENGE,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAIL,
    JOB_RESULT,
    METRICS,
    METRICS_REPLY,
    REJECT,
    REJECTED,
    SHUTDOWN,
    STATUS,
    STATUS_REPLY,
    SUBMIT,
    SUBMITTED,
    WELCOME,
    ProtocolError,
    client_tls_context,
    connect_with_retry,
    handshake,
    is_frame,
    recv_message,
    resolve_secret,
    resolve_tls,
    send_message,
    start_heartbeat,
)
from ..exceptions import ServiceError

__all__ = ["ServiceClient", "JobHandle"]


class _Connection:
    """One handshaken socket to the daemon and the lock its writers share.

    Every frame the client sends goes out under :attr:`write_lock`, and
    so do a job's heartbeat pings: a ping from the last job's heartbeat
    thread, not yet stopped, never splits the next job's ``SUBMIT``.
    """

    __slots__ = ("sock", "write_lock", "interval", "idle_since")

    def __init__(self, sock: socket.socket, interval: float):
        self.sock = sock
        self.write_lock = threading.Lock()
        #: The daemon's ``heartbeat_interval`` (from WELCOME).
        self.interval = interval
        #: Monotonic time this connection was last handed back.
        self.idle_since = 0.0

    def send(self, message: tuple) -> None:
        with self.write_lock:
            send_message(self.sock, message)

    def reusable(self) -> bool:
        """Whether this idle connection may carry another request."""
        if time.monotonic() - self.idle_since >= self.interval:
            return False
        if isinstance(self.sock, ssl.SSLSocket) and self.sock.pending():
            return False
        readable, _, _ = select.select([self.sock], [], [], 0)
        return not readable

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class JobHandle:
    """One submitted job: its id and the connection streaming results.

    Iterate :meth:`results` to drain the stream: once it ends with
    ``JOB_DONE`` the connection goes back to its :class:`ServiceClient`
    for the next operation.  :meth:`close` (or the context manager)
    releases it otherwise: the connection is closed, and closing before
    the stream is drained makes the daemon cancel the job's remaining
    shards.  A heartbeat thread pings the daemon while the consumer is
    busy between frames, so slow consumption is not mistaken for death.
    """

    def __init__(self, conn: _Connection, job_id: str, shard_ids: list[int], release):
        self.job_id = job_id
        self.shard_ids = list(shard_ids)
        self._conn = conn
        self._release = release
        self._drained = False
        self._closed = False
        self._stop = start_heartbeat(
            conn.sock, conn.write_lock, conn.interval, "repro-service-heartbeat"
        )

    def results(self):
        """Yield ``(shard_id, payload)`` per completed shard, then stop
        at the stream's ``JOB_DONE`` and hand the connection back.

        Raises :class:`~repro.exceptions.ServiceError` when the job
        fails, is cancelled (possibly by another connection), the
        daemon shuts down mid-job, or it sends a frame that is none of
        these.
        """
        while True:
            try:
                message = recv_message(self._conn.sock)
            except (ProtocolError, OSError) as exc:
                raise ServiceError(
                    f"lost the service connection mid-job: {exc}"
                ) from None
            if message is None:
                raise ServiceError(
                    "the service daemon closed the connection mid-job"
                )
            if is_frame(message, JOB_RESULT, str, int, list):
                yield message[2], message[3]
            elif is_frame(message, JOB_FAIL, str, int, object):
                raise ServiceError(
                    f"job {self.job_id} failed on shard {message[2]}: "
                    f"{message[3]}"
                )
            elif is_frame(message, JOB_CANCELLED, str):
                raise ServiceError(f"job {self.job_id} was cancelled")
            elif is_frame(message, SHUTDOWN):
                raise ServiceError(
                    f"the service daemon shut down with job {self.job_id} "
                    f"unfinished"
                )
            elif is_frame(message, JOB_DONE, str):
                self._drained = True
                self.close()
                return
            else:
                raise ServiceError(
                    "malformed frame from the service daemon mid-job: "
                    f"{message!r:.200}"
                )

    def close(self) -> None:
        """Release the connection; an undrained job is cancelled."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._drained:
            self._release(self._conn)
        else:
            self._conn.close()

    def __enter__(self) -> "JobHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"JobHandle({self.job_id}, {len(self.shard_ids)} shard(s))"


class ServiceClient:
    """Submit, watch and cancel jobs on a standing sweep service.

    Parameters
    ----------
    host, port:
        The service daemon's address.
    secret:
        Shared authentication secret (default:
        ``REPRO_CLUSTER_SECRET``; required when the daemon has one).
    connect_timeout:
        Seconds to wait for the TCP connect and each handshake reply.
    tenant:
        Fair-share/quota identity declared to the daemon; clients
        naming the same tenant share one accounting bucket.  Empty
        (the default) joins the shared default tenant.
    tls_ca, tls_cert, tls_key:
        Connect over TLS: *tls_ca* is the trust root the daemon's
        certificate must verify against (for a self-signed daemon,
        that certificate itself; default ``REPRO_TLS_CA``), and
        *tls_cert*/*tls_key* present a client certificate when the
        daemon demands mutual TLS.  All unset connects cleartext.

    The client keeps the connections its finished operations hand back
    (see the module docstring); :meth:`close`, or leaving a ``with``
    block, closes them.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        secret: str | None = None,
        connect_timeout: float = 10.0,
        tenant: str = "",
        tls_ca: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
    ):
        self.host = host or "127.0.0.1"
        self.port = int(port)
        self.tenant = str(tenant or "")
        self._secret = resolve_secret(secret)
        self._connect_timeout = float(connect_timeout)
        tls_cert, tls_key, tls_ca = resolve_tls(tls_cert, tls_key, tls_ca)
        self._ssl_context = (
            client_tls_context(tls_ca, tls_cert, tls_key)
            if (tls_ca or tls_cert)
            else None
        )
        # Connections handed back by finished operations, oldest first.
        # Locked: one client may serve streams in several threads.
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Connection handshake
    # ------------------------------------------------------------------
    def _open_socket(self) -> socket.socket | None:
        """One connected socket to the daemon; ``None`` when it stays
        unreachable for the connect timeout."""
        # Retry with capped backoff for the whole budget: the daemon may
        # still be binding (scripted start-ups) or mid-restart.
        return connect_with_retry(
            self.host,
            self.port,
            self._connect_timeout,
            ssl_context=self._ssl_context,
        )

    def _connect(self) -> _Connection:
        sock = self._open_socket()
        if sock is None:
            raise ServiceError(
                f"cannot reach service daemon {self.host}:{self.port} "
                f"within {self._connect_timeout:g}s"
            )
        info = {
            "role": "client",
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "tenant": self.tenant,
        }
        try:
            kind, detail = handshake(sock, info, self._secret)
        except (ProtocolError, OSError) as exc:
            sock.close()
            raise ServiceError(f"service handshake failed: {exc}") from None
        if kind != WELCOME:
            sock.close()
            if kind is None:
                raise ServiceError(
                    "the service daemon closed the connection during the handshake"
                )
            if kind == CHALLENGE:
                raise ServiceError(
                    "the service daemon requires a shared secret; pass "
                    "secret= or set REPRO_CLUSTER_SECRET"
                )
            if kind == REJECT:
                raise ServiceError(f"rejected by the service daemon: {detail}")
            raise ServiceError(f"unexpected handshake reply {kind!r}")
        # Result frames may be minutes apart; the heartbeat thread keeps
        # the connection audible instead of a per-frame socket timeout.
        sock.settimeout(None)
        return _Connection(sock, float(detail.get("heartbeat_interval") or 5.0))

    def _take(self) -> _Connection:
        """The newest idle connection still fit for reuse, else a fresh
        one; unfit idle connections met on the way are closed."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if conn.reusable():
                return conn
            conn.close()
        return self._connect()

    def _release(self, conn: _Connection) -> None:
        """Keep *conn* for the next operation (close it once the client
        is closed)."""
        conn.idle_since = time.monotonic()
        with self._idle_lock:
            if not self._closed:
                self._idle.append(conn)
                return
        conn.close()

    def _roundtrip(self, request: tuple, reply_kind: str, *fields: type) -> tuple:
        """Send *request* and return the fields of the ``(reply_kind,
        *fields)`` reply, one value of each type in *fields*.  Any other
        reply raises :class:`~repro.exceptions.ServiceError` and closes
        the connection; a good one hands it back for reuse."""
        conn = self._take()
        try:
            conn.send(request)
            reply = recv_message(conn.sock)
        except (ProtocolError, OSError) as exc:
            conn.close()
            raise ServiceError(f"service request failed: {exc}") from None
        if not is_frame(reply, reply_kind, *fields):
            conn.close()
            raise ServiceError(
                f"unexpected service reply {reply!r} (wanted {reply_kind})"
            )
        self._release(conn)
        return reply[1:]

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        shard_payloads: list[list],
        *,
        priority: int = 0,
        label: str = "",
    ) -> JobHandle:
        """Queue one job of shards; returns the streaming handle.

        Each element of *shard_payloads* is one shard's ``(index,
        request)`` list, exactly as the cluster tier shards them
        (:func:`~repro.engine.backends.instance_aligned_shards`).
        Larger *priority* values are scheduled ahead of smaller ones.

        Raises :class:`~repro.exceptions.ServiceError` when the daemon
        refuses the submission under this tenant's admission quota
        (the message carries the daemon's reason).
        """
        conn = self._take()
        try:
            conn.send(
                (SUBMIT, shard_payloads, {"priority": int(priority), "label": label})
            )
            reply = recv_message(conn.sock)
        except (ProtocolError, OSError) as exc:
            conn.close()
            raise ServiceError(f"job submission failed: {exc}") from None
        if is_frame(reply, REJECTED, object):
            conn.close()
            raise ServiceError(f"submission rejected: {reply[1]}")
        if not is_frame(reply, SUBMITTED, str, list):
            conn.close()
            raise ServiceError(f"unexpected submission reply {reply!r}")
        return JobHandle(conn, reply[1], reply[2], self._release)

    def status(self, job_id: str | None = None) -> list[dict]:
        """Status records of the daemon's jobs (one, or all).

        Records carry ``job``, ``state``, ``priority``, ``label``,
        ``client``, ``shards``, ``completed`` and ``submitted_at``; an
        unknown *job_id* yields an empty list.  This is the ``jobs``
        section of :meth:`status_full`.
        """
        doc = self.status_full(job_id)
        jobs = doc.get("jobs", [])
        return jobs if isinstance(jobs, list) else []

    def status_full(self, job_id: str | None = None) -> dict:
        """The daemon's full STATUS document.

        ``{"jobs": [...], "clients": [...], "pool": {...}}`` — job
        records, per-tenant fair-share/quota counters, and worker-pool
        gauges.
        """
        (doc,) = self._roundtrip((STATUS, job_id), STATUS_REPLY, dict)
        return doc

    def metrics(self) -> dict:
        """The daemon's live observability document (METRICS, v6).

        ``{"schema": "repro.metrics/v1", "time", "queue": {"depth",
        "oldest_age"}, "jobs": [...], "clients": [...], "pool": {...},
        "store": {...}}`` — per-job progress/ETA from shard completion
        rates, queue depth and age, per-tenant counters, worker-pool
        gauges, and result-store hit rates.
        """
        (doc,) = self._roundtrip((METRICS,), METRICS_REPLY, dict)
        return doc

    def cancel(self, job_id: str) -> bool:
        """Cancel a live job; ``False`` when unknown or already finished."""
        _, ok = self._roundtrip((CANCEL, job_id), CANCEL_REPLY, object, bool)
        return ok

    def close(self) -> None:
        """Close the idle connections; from now on each operation closes
        its connection when it ends."""
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ServiceClient({self.host}:{self.port})"
