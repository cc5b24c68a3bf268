"""Benchmark smoke: the serial engine vs. the process-sharded backend.

The acceptance workload of the backends subsystem: a figure8-style
multi-instance sweep executed through both backends.  The point being
pinned is *correctness under sharding* — byte-identical costs no matter
where the requests run — plus a timing report for the curious.  No
relative-speed assertion is made: whether processes beat the serial
engine depends on core count (CI containers often expose a single CPU,
where the process pool's pickling overhead dominates).
"""

from __future__ import annotations

import time

from repro import EvaluationEngine, ProcessBackend
from repro.engine.diskcache import cell_key

from .conftest import WORKLOAD_MAPPERS, WORKLOAD_NODE_COUNTS, backend_workload
from .conftest import result_signature as _signature

#: 6 distinct grids x 4 deterministic mappers x 3 sweeps = 72 evaluations.
SWEEPS = 3


def _workload():
    return backend_workload(sweeps=SWEEPS)


def test_serial_and_process_backends_agree(tmp_path):
    requests = _workload()
    timings = {}
    start = time.perf_counter()
    reference = [_signature(r) for r in EvaluationEngine().evaluate_batch(requests)]
    timings["serial"] = time.perf_counter() - start

    with ProcessBackend(2, disk_cache_dir=tmp_path) as process_backend:
        start = time.perf_counter()
        process_results = process_backend.evaluate_batch(requests)
        timings["process"] = time.perf_counter() - start

        # streaming yields the same multiset of results
        streamed = sorted(
            _signature(r) for r in process_backend.evaluate_stream(requests)
        )
    assert [_signature(r) for r in process_results] == reference
    assert streamed == sorted(reference)

    # the workers published every distinct cell to the shared result
    # store, and nothing else
    assert {p.name for p in tmp_path.iterdir()} == {
        f"result-{cell_key(r)}.cell" for r in requests
    }
    print(
        f"\nbackend timings on {len(requests)} requests: "
        + ", ".join(f"{k}={v * 1e3:.1f} ms" for k, v in timings.items())
    )


def test_process_backend_warm_disk_cache_skips_edge_rebuild(tmp_path):
    """A second backend pointed at the same cache dir answers every
    request from the stored cells, so it neither maps nor builds edges."""
    requests = _workload()[: len(WORKLOAD_NODE_COUNTS) * len(WORKLOAD_MAPPERS)]
    with ProcessBackend(1, disk_cache_dir=tmp_path) as cold:
        reference = [_signature(r) for r in cold.evaluate_batch(requests)]
    stored = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
    assert stored.keys() == {f"result-{cell_key(r)}.cell" for r in requests}
    with ProcessBackend(1, disk_cache_dir=tmp_path) as warm:
        assert [_signature(r) for r in warm.evaluate_batch(requests)] == reference
    # the warm run published nothing: a computed cell would have replaced
    # its file (and inode)
    assert {p.name: p.stat().st_ino for p in tmp_path.iterdir()} == stored
