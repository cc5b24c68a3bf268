"""Blocking-socket client of a standing sweep service.

A :class:`ServiceClient` talks to a :class:`~repro.service.daemon.
ServiceDaemon` over the cluster wire protocol's client message set.
Connections are per-operation: :meth:`ServiceClient.submit` opens one
and keeps it for the life of the job (results stream back on it, a
heartbeat thread keeps it audible, closing it early cancels the job);
:meth:`status` and :meth:`cancel` open a short-lived one each, so a
monitoring client never interleaves with a result stream.

>>> client = ServiceClient("head-node", 7077)
>>> with client.submit(shards, priority=5) as handle:   # doctest: +SKIP
...     for shard_id, payload in handle.results():
...         consume(payload)
"""

from __future__ import annotations

import os
import socket
import threading

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


class JobHandle:
    """One submitted job: its id and the connection streaming results.

    Iterate :meth:`results` to drain the stream; :meth:`close` (or the
    context manager) releases the connection — early, before the stream
    is drained, the daemon cancels the job's remaining shards.  A
    heartbeat thread pings the daemon while the consumer is busy
    between frames, so slow consumption is not mistaken for death.
    """

    def __init__(
        self,
        sock: socket.socket,
        job_id: str,
        shard_ids: list[int],
        heartbeat_interval: float,
    ):
        self.job_id = job_id
        self.shard_ids = list(shard_ids)
        self._sock = sock
        self._closed = False
        self._stop = start_heartbeat(
            sock, threading.Lock(), heartbeat_interval, "repro-service-heartbeat"
        )

    def results(self):
        """Yield ``(shard_id, payload)`` per completed shard, then stop.

        Raises :class:`~repro.exceptions.ServiceError` when the job
        fails, is cancelled (possibly by another connection), the
        daemon shuts down mid-job, or it sends a frame that is none of
        these.
        """
        remaining = set(self.shard_ids)
        while remaining:
            try:
                message = recv_message(self._sock)
            except (ProtocolError, OSError) as exc:
                raise ServiceError(
                    f"lost the service connection mid-job: {exc}"
                ) from None
            if message is None:
                raise ServiceError(
                    "the service daemon closed the connection mid-job"
                )
            if is_frame(message, JOB_RESULT, str, int, list):
                remaining.discard(message[2])
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
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

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

    def _connect(self) -> tuple[socket.socket, dict]:
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
        return sock, detail

    def _roundtrip(self, request: tuple, reply_kind: str, *fields: type) -> tuple:
        """Send *request* on its own connection; return the fields of the
        ``(reply_kind, *fields)`` reply, one value of each type in
        *fields*.  Any other reply raises :class:`~repro.exceptions.
        ServiceError`."""
        sock, _ = self._connect()
        try:
            send_message(sock, request)
            reply = recv_message(sock)
        except (ProtocolError, OSError) as exc:
            raise ServiceError(f"service request failed: {exc}") from None
        finally:
            sock.close()
        if not is_frame(reply, reply_kind, *fields):
            raise ServiceError(
                f"unexpected service reply {reply!r} (wanted {reply_kind})"
            )
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
        sock, settings = self._connect()
        try:
            send_message(
                sock,
                (
                    SUBMIT,
                    shard_payloads,
                    {"priority": int(priority), "label": label},
                ),
            )
            reply = recv_message(sock)
        except (ProtocolError, OSError) as exc:
            sock.close()
            raise ServiceError(f"job submission failed: {exc}") from None
        if is_frame(reply, REJECTED, object):
            sock.close()
            raise ServiceError(f"submission rejected: {reply[1]}")
        if not is_frame(reply, SUBMITTED, str, list):
            sock.close()
            raise ServiceError(f"unexpected submission reply {reply!r}")
        interval = float(settings.get("heartbeat_interval") or 5.0)
        return JobHandle(sock, reply[1], reply[2], interval)

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
        """No-op for symmetry: connections are per-operation."""

    def __repr__(self) -> str:
        return f"ServiceClient({self.host}:{self.port})"
