"""Standing sweep service: one daemon, many workers, many driver jobs.

The service is the repo's one distributed tier.  A
:class:`ServiceDaemon` hosts one persistent coordinator, workers attach
once and keep their engine and edge caches warm across jobs, and any
number of concurrent drivers submit compiled sweeps as prioritised jobs
over the same socket protocol.  That is the seam the repeated mapping
decisions of the source paper's setting need: the per-query cost of a
sweep drops to the shards themselves, because the service amortises
worker start-up, cache warm-up and connection churn across every job it
serves.

Daemon host::

    REPRO_CLUSTER_SECRET=... python -m repro.experiments serve-jobs \
        --bind 0.0.0.0:7077

Worker hosts (attach once, serve every job, reconnect on daemon
restart)::

    python -m repro.experiments work --connect head:7077 --backend process:8

Any driver, concurrently with any other::

    from repro import run, resolve_backend

    results = run(spec, backend="service:head:7077")      # priority 0
    urgent = run(spec2, backend="service:head:7077:5")    # ahead of it

plus ``python -m repro.experiments submit/status/cancel`` for the CLI
side, and ``python -m repro.experiments watch`` for live observability
— the daemon's ``METRICS`` round-trip serves a machine-readable
snapshot (per-job progress and ETA from shard completion rates, queue
depth *and* age, per-tenant counters, worker-pool gauges, result-store
hit rates) that ``watch`` renders as a refreshing progress table or
raw JSON.  Set ``REPRO_CLUSTER_SECRET`` (or pass ``--secret``) on daemon,
workers and clients to require the HMAC handshake on every connection
(the CLI binds ``127.0.0.1:7077`` by default and refuses any other
interface without a secret or TLS); pass ``--tls-cert/--tls-key`` (daemon) and ``--tls-ca`` (workers,
clients) to run every connection over TLS.

The tier is *multi-tenant*: clients are fair-share *tenants* whose
shards interleave by weighted deficit, so a flooding client cannot
starve the rest, and per-client admission quotas answer over-quota
submissions with a clean rejection.  The worker pool is whatever
attaches: each worker host starts its own ``work`` process.

:class:`ServiceBackend` implements the standard
:class:`~repro.engine.backends.Backend` protocol, so everything that
takes a backend — the sweep API, every experiment driver, the CLI —
gains the service tier unchanged; :class:`ServiceClient` is the lower
level job API (submit/status/cancel, streamed shard payloads).
"""

from .backend import ServiceBackend, parse_service_spec
from .client import JobHandle, ServiceClient
from .daemon import ServiceDaemon

__all__ = [
    "ServiceBackend",
    "ServiceClient",
    "JobHandle",
    "ServiceDaemon",
    "parse_service_spec",
]
