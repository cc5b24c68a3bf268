"""Cluster worker loop: pull shards, evaluate, stream results.

:func:`run_worker` is what the ``work`` verb runs, one per host (or
several, one per NUMA domain)::

    python -m repro.experiments work --connect head-node:7077
    python -m repro.experiments work --connect head-node:7077 \\
        --backend process:8 --cache-dir /shared/repro-cache

The worker connects to a coordinator (retrying for ``--connect-timeout``
seconds, so it may be launched before the sweep), handshakes (a peer
that does not answer within that timeout, at least 1 s, counts as a
lost coordinator) and sends one ``GET``.  Then it loops: receive a
shard, ``GET`` the next one, evaluate this one on a local backend (the
serial engine by default; ``--backend process[:N]`` for multi-core
hosts), send the ``RESULT`` back.  Asking before evaluating lets the
coordinator send the next shard while this one runs, so no round trip
sits between two shards; a worker holds at most one shard beyond the
one it evaluates.  A heartbeat thread pings throughout, including while
a shard is being evaluated, so long shards are not mistaken for death.

Losing an *established* coordinator (a standing service daemon that
restarted, a network blip) does not kill the worker: it reconnects with
capped exponential backoff for up to ``--reconnect-timeout`` seconds
(default 60; ``0`` restores the old exit-on-loss behaviour).  The
budget resets on every successful reconnect, so a worker survives any
number of coordinator restarts as long as each outage is shorter than
the budget.

If the coordinator requires a shared secret, pass the same value via
``--secret`` or the ``REPRO_CLUSTER_SECRET`` environment variable; the
worker answers the HMAC challenge during the handshake.

If the coordinator serves TLS, pass ``--tls-ca`` with its trust root
(for a self-signed deployment, the coordinator's own certificate; also
``$REPRO_TLS_CA``); ``--tls-cert``/``--tls-key`` additionally load a
worker certificate for mutual-TLS coordinators.

The worker's engines use a result store only when given one:
``--cache-dir``, else ``REPRO_CACHE_DIR`` (an empty value disables it).
The coordinator's own cache directory is not shared with workers: a
daemon with a store already looks up and publishes every cell it
dispatches, so a worker with the same directory would only do both a
second time.

Exit codes: ``0`` after a coordinator ``SHUTDOWN`` (sweep over), ``1``
on a lost/unreachable coordinator (after the reconnect budget), ``2``
on a handshake rejection (e.g. stale protocol version, bad secret) or
a frame that is neither ``(SHARD, shard_id, items)`` nor
``(SHUTDOWN,)``.
"""

from __future__ import annotations

import os
import socket
import threading

from .protocol import (
    CHALLENGE,
    FAIL,
    GET,
    REJECT,
    RESULT,
    SHARD,
    SHUTDOWN,
    WELCOME,
    ProtocolError,
    client_tls_context,
    connect_with_retry,
    handshake,
    is_frame,
    parse_address,
    recv_message,
    resolve_secret,
    resolve_tls,
    send_message,
    start_heartbeat,
)

__all__ = ["run_worker"]

#: _serve_connection outcomes driving the run_worker reconnect loop.
_SHUTDOWN = "shutdown"
_LOST = "lost"
_REJECTED = "rejected"


def _serve_connection(
    sock: socket.socket,
    host: str,
    port: int,
    *,
    backend,
    secret: str | None,
    log,
) -> str:
    """Handshake and serve one coordinator connection to its end.

    Returns one of the outcome constants: ``_SHUTDOWN`` (clean cluster
    shutdown), ``_LOST`` (connection died; the caller may reconnect) or
    ``_REJECTED`` (handshake refused or a malformed frame; retrying
    would loop).
    """
    try:
        kind, detail = handshake(
            sock, {"pid": os.getpid(), "host": socket.gethostname()}, secret
        )
    except (ProtocolError, OSError) as exc:
        log(f"worker: handshake failed: {exc}")
        sock.close()
        return _LOST
    if kind != WELCOME:
        sock.close()
        if kind is None:
            log("worker: coordinator closed the connection during handshake")
            return _LOST
        if kind == CHALLENGE:
            log(
                "worker: coordinator requires a shared secret; pass "
                "--secret or set REPRO_CLUSTER_SECRET"
            )
        elif kind == REJECT:
            log(f"worker: rejected by coordinator: {detail}")
        else:
            log(f"worker: unexpected handshake reply {kind!r}")
        return _REJECTED
    # The handshake ran under the connect timeout, so a peer that never
    # answers HELLO fails it; from here a parked GET may wait for work
    # indefinitely (keepalive, not a socket timeout, detects a dead peer).
    sock.settimeout(None)

    interval = float(detail.get("heartbeat_interval") or 5.0)
    write_lock = threading.Lock()
    stop = start_heartbeat(sock, write_lock, interval, "repro-cluster-heartbeat")
    log(f"worker: serving coordinator {host}:{port} on {backend!r}")

    def send(message: tuple, context: str = "") -> bool:
        try:
            with write_lock:
                send_message(sock, message)
        except OSError as exc:
            log(f"worker: connection lost{context}: {exc}")
            return False
        return True

    try:
        if not send((GET,)):
            return _LOST
        while True:
            try:
                message = recv_message(sock)
            except (ProtocolError, OSError) as exc:
                log(f"worker: connection lost: {exc}")
                return _LOST
            if message is None:
                log("worker: coordinator went away")
                return _LOST
            if is_frame(message, SHUTDOWN):
                log("worker: coordinator shut the cluster down")
                return _SHUTDOWN
            if not is_frame(message, SHARD, int, list):
                # A coordinator that sent this once would send it again
                # after a reconnect: give up as on a rejected handshake.
                log(f"worker: malformed frame from the coordinator: {message!r:.200}")
                return _REJECTED
            _, shard_id, items = message
            # Asked before evaluating, so the next shard travels meanwhile.
            if not send((GET,)):
                return _LOST
            try:
                results = backend.evaluate_batch([request for _, request in items])
                reply_message = (
                    RESULT,
                    shard_id,
                    [
                        (
                            index,
                            result.perm,
                            result.cost,
                            result.error,
                            result.metrics,
                        )
                        for (index, _), result in zip(items, results)
                    ],
                )
            except Exception as exc:  # engine bug: report, do not requeue
                reply_message = (FAIL, shard_id, f"{type(exc).__name__}: {exc}")
            if not send(reply_message, " sending results"):
                return _LOST
    finally:
        stop.set()
        sock.close()


def run_worker(
    connect: str,
    *,
    backend_spec: str | None = None,
    shards: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    connect_timeout: float = 10.0,
    reconnect_timeout: float = 60.0,
    secret: str | None = None,
    tls_ca: str | None = None,
    tls_cert: str | None = None,
    tls_key: str | None = None,
    log=print,
) -> int:
    """Serve one coordinator until it shuts the cluster down.

    *backend_spec*/*shards* choose the local execution backend
    (``resolve_backend`` syntax; ``service`` itself is refused), built
    once and kept, caches and all, across reconnects; *cache_dir* is its
    result-store directory (default ``REPRO_CACHE_DIR``).  After
    losing an *established* coordinator, the worker reconnects with
    capped exponential backoff for up to *reconnect_timeout* seconds
    (``0`` exits immediately, the pre-service behaviour); the budget
    resets on every successful reconnect.  Any of *tls_ca* / *tls_cert*
    / *tls_key* (or their ``REPRO_TLS_*`` environment fallbacks) turns
    on TLS towards the coordinator.  Returns a process exit code (see
    the module docstring).
    """
    # Imported here, not at module top: resolve_backend lazily imports
    # this package.
    from ..backends import resolve_backend

    if backend_spec is not None and backend_spec.partition(":")[0] == "service":
        raise ValueError("a worker cannot itself execute on a service backend")
    secret = resolve_secret(secret)
    tls_cert, tls_key, tls_ca = resolve_tls(tls_cert, tls_key, tls_ca)
    ssl_context = (
        client_tls_context(tls_ca, tls_cert, tls_key)
        if tls_ca or tls_cert
        else None
    )
    host, port = parse_address(connect, default_host="127.0.0.1")
    # Built *before* connecting: a worker that would die on a bad spec
    # must not first count towards a daemon's wait_for_workers and then
    # leave the sweep hung with zero workers.
    options = {} if cache_dir is None else {"disk_cache_dir": cache_dir}
    backend = resolve_backend(backend_spec, shards=shards, **options)
    try:
        sock = connect_with_retry(
            host, port, connect_timeout, log=log, ssl_context=ssl_context
        )
        while sock is not None:
            outcome = _serve_connection(
                sock, host, port, backend=backend, secret=secret, log=log
            )
            if outcome == _SHUTDOWN:
                return 0
            if outcome == _REJECTED:
                return 2
            if reconnect_timeout <= 0:
                return 1
            log(
                f"worker: reconnecting to {host}:{port} for up to "
                f"{reconnect_timeout:g}s"
            )
            sock = connect_with_retry(
                host,
                port,
                reconnect_timeout,
                max_delay=5.0,
                log=log,
                ssl_context=ssl_context,
            )
        return 1
    finally:
        backend.close()
