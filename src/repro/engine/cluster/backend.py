"""The multi-host execution backend.

:class:`ClusterBackend` implements the :class:`~repro.engine.backends.
Backend` protocol — ``evaluate_batch``, ``evaluate_stream``, ``close``,
context manager — as an ephemeral :class:`~repro.service.ServiceDaemon`
plus a :class:`~repro.service.ServiceBackend` connected to it over
in-process socket pairs, which no TLS setting of the port applies to:
each batch is one job on the backend's own daemon, and closing the
backend closes the daemon.  The port therefore also answers ``status``,
``watch`` and any other service client, and a cache directory turns on
the daemon's result store.  Like the daemon, it binds loopback unless
given another host.  Results are byte-identical to the serial
engine's and ``result.request is request`` holds, as for every backend.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator

from ...exceptions import ClusterError
from ..request import MappingRequest, MappingResult
from .protocol import resolve_secret

__all__ = ["ClusterBackend"]


class ClusterBackend:
    """Distribute instance-aligned shards to socket workers.

    Parameters
    ----------
    host, port:
        Coordinator bind address.  The default binds loopback on an
        ephemeral port (``""`` binds every interface); read
        :attr:`host`/:attr:`port` for the bound values and hand them to
        workers (``python -m repro.experiments work --connect
        host:port``).
    heartbeat_timeout:
        Seconds of silence after which a worker is presumed dead and
        its in-flight shards are requeued (workers ping every third of
        this).  A dead worker therefore costs throughput, not the sweep.
    target_shards:
        Upper bound on shards per batch.  More shards mean finer
        work-stealing granularity (better balance across uneven hosts,
        earlier streamed results) at the price of more round-trips.
    disk_cache_dir:
        Home of the daemon's result store, which answers repeat cells
        without dispatching them; defaults to ``REPRO_CACHE_DIR``.
        Workers keep their own setting (``work --cache-dir``).
    max_shard_requeues:
        Worker deaths one shard may survive before the sweep fails with
        :class:`~repro.exceptions.ServiceError` (a shard that OOM-kills
        its workers must not cycle through the whole cluster).
    secret:
        Shared authentication secret; workers and clients must present
        the same value (``--secret`` / ``REPRO_CLUSTER_SECRET``).
        Defaults to the coordinator process's own
        ``REPRO_CLUSTER_SECRET``; an empty value disables
        authentication.
    tls_cert, tls_key, tls_ca:
        Serve the port over TLS with this certificate/key pair
        (defaults: ``REPRO_TLS_CERT``/``REPRO_TLS_KEY``); workers then
        connect with ``--tls-ca`` naming the matching trust root.
        *tls_ca* additionally demands client certificates signed by it
        (mutual TLS).  Unset serves cleartext, the default.

    Notes
    -----
    A batch submitted while no worker is connected simply waits in the
    queue — the cluster is pull-based, so workers may join (and leave)
    mid-sweep.  Use :meth:`wait_for_workers` to gate a sweep on a
    minimum cluster size.  A failed sweep raises
    :class:`~repro.exceptions.ServiceError`, a
    :class:`~repro.exceptions.ClusterError`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = 15.0,
        target_shards: int = 32,
        disk_cache_dir: str | os.PathLike | None = None,
        max_shard_requeues: int = 3,
        secret: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        tls_ca: str | None = None,
    ):
        # Imported here: the service package builds on the engine.
        from ...service import ServiceBackend, ServiceDaemon

        # Resolved once, and handed on as "" when unset, so the daemon
        # and its in-process client cannot read different defaults.
        secret = resolve_secret(secret) or ""
        self._daemon = ServiceDaemon(
            host,
            port,
            heartbeat_timeout=heartbeat_timeout,
            disk_cache_dir=disk_cache_dir,
            max_shard_requeues=max_shard_requeues,
            secret=secret,
            tls_cert=tls_cert,
            tls_key=tls_key,
            tls_ca=tls_ca,
        )
        # Jobs reach the daemon over in-process socket pairs, not its
        # port, so no TLS layout the port serves (a CA-signed
        # certificate, client certificates demanded) can shut the
        # backend out; its client loads no TLS files at all.
        try:
            self._backend = ServiceBackend(
                self.host,
                self.port,
                target_shards=target_shards,
                secret=secret,
                tls_ca="",
                tls_cert="",
                tls_key="",
            )
        except BaseException:
            self._daemon.close()
            raise
        self._backend.client._open_socket = self._daemon.connect_in_process
        self.target_shards = self._backend.target_shards
        self._closed = False

    @property
    def host(self) -> str:
        """The coordinator's bound host."""
        return self._daemon.host

    @property
    def port(self) -> int:
        """The coordinator's bound port (resolved when it was ``0``)."""
        return self._daemon.port

    @property
    def num_workers(self) -> int:
        """Currently connected worker count."""
        return self._daemon.num_workers

    def wait_for_workers(self, count: int, timeout: float | None = None) -> None:
        """Block until *count* workers are connected.

        Raises :class:`~repro.exceptions.ClusterError` on timeout.
        """
        try:
            self._daemon.wait_for_workers(count, timeout)
        except TimeoutError:
            raise ClusterError(
                f"timed out after {timeout}s waiting for {count} worker(s); "
                f"{self.num_workers} connected"
            ) from None

    def evaluate_batch(self, requests: Iterable[MappingRequest]) -> list[MappingResult]:
        """Evaluate a batch across the cluster, in input order."""
        return self._backend.evaluate_batch(requests)

    def evaluate_stream(
        self, requests: Iterable[MappingRequest]
    ) -> Iterator[MappingResult]:
        """Evaluate a batch, yielding results as shards complete.

        Within one shard results keep their relative request order;
        across shards the order is completion order.  Closing the
        generator early cancels the job's remaining shards.
        """
        return self._backend.evaluate_stream(requests)

    def close(self) -> None:
        """Shut the cluster down: workers are told to exit cleanly."""
        self._closed = True
        self._backend.close()
        self._daemon.close()

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.num_workers} worker(s)"
        return f"ClusterBackend({self.host}:{self.port}, {state})"
