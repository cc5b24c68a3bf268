"""Benchmark: the memoized result-serving layer's warm path.

The content-addressed result store turns a repeat SweepSpec submission
into pure disk lookups: the daemon answers every cell from
``result-<sha256>.cell`` entries and dispatches zero worker shards.  The
pinned properties are *correctness* (warm rows byte-identical to the
cold rows that populated the store) and *independence from workers*
(the warm daemon has none at all, so a single dispatched shard would
hang the test rather than silently recompute).  The benchmark clock
measures warm end-to-end throughput — client submit, store lookups,
ResultSet assembly.
"""

from __future__ import annotations

import time

from repro import InstanceSpec, ServiceBackend, ServiceDaemon, SweepSpec, run

from .conftest import _spawn_worker

#: 2 instances x 2 families x 3 mappers = 12 cells: enough that the
#: warm path's per-cell lookup cost dominates connection overhead.
def _spec() -> SweepSpec:
    return SweepSpec(
        instances=[
            InstanceSpec.from_nodes(4, 8),
            InstanceSpec.from_nodes(8, 8),
        ],
        stencils=["nearest_neighbor", "component"],
        mappers=["blocked", "hyperplane", "nodecart"],
    )


def test_warm_result_store_serves_without_workers(benchmark, tmp_path):
    spec = _spec()

    # Cold pass: one daemon + one real worker populates the store.
    with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
        worker = _spawn_worker(daemon.port)
        daemon.wait_for_workers(1, timeout=120)
        start = time.perf_counter()
        with ServiceBackend("127.0.0.1", daemon.port) as backend:
            cold_rows = run(spec, backend).to_rows()
        cold = time.perf_counter() - start
    assert worker.wait(timeout=30) == 0

    # Warm pass: a fresh daemon on the same cache dir, zero workers.
    # Any dispatched shard would wait forever — completion *is* the
    # zero-dispatch assertion, and the job records double-check it.
    with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
        assert daemon.num_workers == 0

        def warm_submit():
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                return run(spec, backend).to_rows()

        warm_rows = benchmark(warm_submit)
        records = daemon.jobs()
        assert records and all(r["shards"] == 0 for r in records), records
        assert all(r["state"] == "done" for r in records), records

    assert warm_rows == cold_rows
    cells = len(cold_rows)
    warm = benchmark.stats.stats.min if benchmark.stats else None
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["cold_seconds"] = cold
    if warm:
        print(
            f"\nresult store: {cells} cells cold {cold * 1e3:.1f} ms, "
            f"warm {warm * 1e3:.1f} ms ({cells / warm:.0f} cells/s, "
            f"zero shards dispatched)"
        )
