"""Distributed multi-host evaluation over TCP sockets.

The one distributed tier, above the serial
:class:`~repro.engine.EvaluationEngine` (one thread) and
:class:`~repro.engine.ProcessBackend` (one machine):
a :class:`~repro.service.ServiceDaemon` hosts a work-stealing
:class:`~repro.engine.cluster.coordinator.Coordinator`, and a
:class:`ClusterBackend` is such a daemon of its own, fed by an
in-process :class:`~repro.service.ServiceBackend`.  Any host that can
reach it contributes capacity by running the ``work`` verb::

    python -m repro.experiments work --connect head:7077

Driver side (the default host is loopback; ``""`` binds every
interface, so read the README's Trust section first)::

    from repro.engine.cluster import ClusterBackend

    with ClusterBackend("", 7077) as backend:    # or resolve_backend("cluster:7077")
        backend.wait_for_workers(2, timeout=60)
        for result in backend.evaluate_stream(requests):
            consume(result)                      # live, as shards complete

Workers pull shards instead of being assigned them, so heterogeneous
hosts balance themselves; a worker that dies mid-shard only costs
throughput (its shard is requeued), and costs are byte-identical to the
serial engine because the same requests evaluate through the same
engine code, wherever they land.  See :mod:`repro.engine.cluster.
protocol` for the wire format and :mod:`repro.engine.cluster.
coordinator` for the failure semantics.
"""

from .backend import ClusterBackend
from .coordinator import Coordinator
from .protocol import (
    PROTOCOL_VERSION,
    SECRET_ENV,
    parse_address,
    resolve_secret,
)

__all__ = [
    "ClusterBackend",
    "Coordinator",
    "PROTOCOL_VERSION",
    "SECRET_ENV",
    "parse_address",
    "resolve_secret",
]
