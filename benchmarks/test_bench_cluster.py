"""Benchmark smoke: the service tier on localhost workers.

The multi-host counterpart of ``test_bench_sharding``: a figure8-style
multi-instance sweep shipped over TCP, through a service daemon, to
worker subprocesses.  As with the process backend, the pinned property
is *correctness under distribution* — byte-identical costs after a
pickle round-trip over the wire — plus a timing report.  Localhost
socket + subprocess overhead means no relative-speed assertion is
meaningful here; the service tier pays off when workers live on other
machines.
"""

from __future__ import annotations

import time

from repro import EvaluationEngine, ServiceBackend, ServiceDaemon

from .conftest import _spawn_worker
from .conftest import backend_workload as _workload
from .conftest import result_signature as _signature


def test_service_backend_agrees_with_serial_over_sockets():
    requests = _workload()
    reference = [
        _signature(r)
        for r in EvaluationEngine(max_workers=1).evaluate_batch(requests)
    ]

    with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=10.0) as daemon:
        workers = [_spawn_worker(daemon.port) for _ in range(2)]
        daemon.wait_for_workers(2, timeout=120)
        with ServiceBackend("127.0.0.1", daemon.port) as backend:
            start = time.perf_counter()
            results = backend.evaluate_batch(requests)
            elapsed = time.perf_counter() - start
    assert [_signature(r) for r in results] == reference
    assert [w.wait(timeout=30) for w in workers] == [0, 0]
    print(
        f"\nservice backend: {len(requests)} requests over 2 localhost "
        f"workers in {elapsed * 1e3:.1f} ms"
    )
