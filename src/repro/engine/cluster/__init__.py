"""Distributed multi-host evaluation over TCP sockets.

The one distributed tier, above the serial
:class:`~repro.engine.EvaluationEngine` (one thread) and
:class:`~repro.engine.ProcessBackend` (one machine): a
:class:`~repro.service.ServiceDaemon` (``serve-jobs``) hosts the
work-stealing :class:`~repro.engine.cluster.coordinator.Coordinator`,
and drivers submit to it through a :class:`~repro.service.ServiceBackend`
(``service:`` specs).  Any host that can reach the daemon contributes
capacity by running the ``work`` verb::

    python -m repro.experiments work --connect head:7077

Workers pull shards instead of being assigned them, so heterogeneous
hosts balance themselves; a worker that dies mid-shard only costs
throughput (its shard is requeued), and costs are byte-identical to the
serial engine because the same requests evaluate through the same
engine code, wherever they land.  See :mod:`repro.engine.cluster.
protocol` for the wire format and :mod:`repro.engine.cluster.
coordinator` for the failure semantics.
"""

from .coordinator import Coordinator
from .protocol import (
    PROTOCOL_VERSION,
    SECRET_ENV,
    parse_address,
    resolve_secret,
)

__all__ = [
    "Coordinator",
    "PROTOCOL_VERSION",
    "SECRET_ENV",
    "parse_address",
    "resolve_secret",
]
