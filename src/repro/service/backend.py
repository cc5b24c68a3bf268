"""The service execution backend: sweeps as jobs on a standing daemon.

:class:`ServiceBackend` implements the
:class:`~repro.engine.backends.Backend` protocol on top of a
:class:`~repro.service.client.ServiceClient`: each batch is dealt into
the same instance-aligned LPT shards as the process backend,
submitted as one job, and rebuilt from the streamed shard payloads —
results are byte-identical to the serial engine's and ``result.request
is request`` holds for every caller.  Many drivers (or many processes)
may point at one daemon concurrently, each with its own priority.

CLI spec syntax (:func:`~repro.engine.backends.resolve_backend`)::

    service:7077                 # localhost daemon
    service:head-node:7077       # remote daemon
    service:7077:5               # localhost, priority 5
    service:head-node:7077:5     # remote, priority 5
"""

from __future__ import annotations

import os
import socket as _socket
from collections.abc import Iterable, Iterator

from ..engine.backends import rebuild_batch, rebuild_stream, shard_payloads
from ..engine.cluster.protocol import parse_address
from ..engine.request import MappingRequest, MappingResult
from .client import ServiceClient

__all__ = ["ServiceBackend", "parse_service_spec"]


def parse_service_spec(text: str) -> tuple[str, int, int]:
    """Parse ``"[host:]port[:priority]"`` into ``(host, port, priority)``.

    With exactly two components, two integers read as ``port:priority``
    and anything else as ``host:port`` (numeric bare hostnames must be
    written with an explicit priority, e.g. ``"12345:7077:0"``).  A
    missing host means localhost.
    """
    parts = text.split(":") if text else []
    if not parts or len(parts) > 3:
        raise ValueError(
            f"invalid service address {text!r}; expected [host:]port[:priority]"
        )
    priority = 0
    if len(parts) == 3:
        host_port, priority_text = parts[0] + ":" + parts[1], parts[2]
    elif len(parts) == 2 and parts[0].isdigit() and parts[1].lstrip("-").isdigit():
        host_port, priority_text = parts[0], parts[1]
    else:
        host_port, priority_text = ":".join(parts), None
    if priority_text is not None:
        try:
            priority = int(priority_text)
        except ValueError:
            raise ValueError(
                f"invalid priority in service address {text!r}"
            ) from None
    host, port = parse_address(host_port, default_host="127.0.0.1")
    return host, port, priority


class ServiceBackend:
    """Evaluate batches as jobs on a standing sweep service.

    Parameters
    ----------
    host, port:
        The service daemon's address.
    priority:
        Scheduling priority of this backend's jobs; larger values are
        handed to workers ahead of lower-priority jobs' shards.
    target_shards:
        Upper bound on shards per job (finer work-stealing granularity
        and earlier streamed results versus more round-trips).
    label:
        Shown in ``status`` listings next to this backend's jobs;
        defaults to ``user@host:pid``.
    secret:
        Shared authentication secret (default:
        ``REPRO_CLUSTER_SECRET``).
    connect_timeout:
        Seconds to wait for the daemon when opening a connection.
    tenant:
        Fair-share/quota identity this backend's jobs are accounted
        under (see :class:`~repro.service.client.ServiceClient`);
        empty joins the shared default tenant.
    tls_ca, tls_cert, tls_key:
        TLS trust root (and optional client certificate, for mutual
        TLS) for daemon connections; all unset connects cleartext.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7077,
        *,
        priority: int = 0,
        target_shards: int = 32,
        label: str | None = None,
        secret: str | None = None,
        connect_timeout: float = 10.0,
        tenant: str = "",
        tls_ca: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
    ):
        if target_shards < 1:
            raise ValueError(
                f"target_shards must be >= 1, got {target_shards}",
            )
        self.priority = int(priority)
        self.target_shards = int(target_shards)
        if label is None:
            user = os.environ.get("USER") or os.environ.get("USERNAME") or "client"
            label = f"{user}@{_socket.gethostname()}:{os.getpid()}"
        self.label = label
        self._client = ServiceClient(
            host,
            port,
            secret=secret,
            connect_timeout=connect_timeout,
            tenant=tenant,
            tls_ca=tls_ca,
            tls_cert=tls_cert,
            tls_key=tls_key,
        )
        self._closed = False

    @property
    def host(self) -> str:
        """The daemon address this backend submits to."""
        return self._client.host

    @property
    def port(self) -> int:
        """The daemon port this backend submits to."""
        return self._client.port

    @property
    def client(self) -> ServiceClient:
        """The underlying client (for ``status``/``cancel`` calls)."""
        return self._client

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _completed_shards(self, requests: list[MappingRequest]) -> Iterator[list]:
        """Submit one job for *requests*, yielding completed payloads."""
        if self._closed:
            raise RuntimeError("service backend is closed")
        if not requests:
            return
        payloads = shard_payloads(requests, self.target_shards)
        handle = self._client.submit(
            payloads, priority=self.priority, label=self.label
        )
        try:
            for _, payload in handle.results():
                yield payload
        finally:
            # Early exit (generator closed, job failed) cancels the
            # job's remaining shards daemon-side.
            handle.close()

    def evaluate_batch(self, requests: Iterable[MappingRequest]) -> list[MappingResult]:
        """Evaluate a batch through the service, in input order."""
        requests = list(requests)
        return rebuild_batch(requests, self._completed_shards(requests))

    def evaluate_stream(
        self, requests: Iterable[MappingRequest]
    ) -> Iterator[MappingResult]:
        """Evaluate a batch, yielding results as shards complete.

        Within one shard results keep their relative request order;
        across shards the order is completion order.  Closing the
        generator early cancels the job's remaining shards.
        """
        requests = list(requests)
        return rebuild_stream(requests, self._completed_shards(requests))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Mark the backend closed and close the connections its client
        keeps between jobs."""
        self._closed = True
        self._client.close()

    def __enter__(self) -> "ServiceBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"priority={self.priority}"
        return f"ServiceBackend({self.host}:{self.port}, {state})"
