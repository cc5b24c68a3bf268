"""Benchmark smoke: socket-cluster backend on localhost workers.

The multi-host counterpart of ``test_bench_sharding``: a figure8-style
multi-instance sweep shipped over TCP to worker subprocesses.  As with
the process backend, the pinned property is *correctness under
distribution* — byte-identical costs after a pickle round-trip over the
wire — plus a timing report.  Localhost socket + subprocess overhead
means no relative-speed assertion is meaningful here; the cluster tier
pays off when workers live on other machines.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro import ClusterBackend, EvaluationEngine

from .conftest import backend_workload as _workload
from .conftest import result_signature as _signature

_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _spawn_worker(port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "work",
            "--connect",
            f"127.0.0.1:{port}",
            "--backend",
            "serial",
            "--connect-timeout",
            "60",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def test_cluster_backend_agrees_with_serial_over_sockets():
    requests = _workload()
    reference = [
        _signature(r)
        for r in EvaluationEngine(max_workers=1).evaluate_batch(requests)
    ]

    with ClusterBackend("127.0.0.1", 0, heartbeat_timeout=10.0) as backend:
        workers = [_spawn_worker(backend.port) for _ in range(2)]
        backend.wait_for_workers(2, timeout=120)
        start = time.perf_counter()
        results = backend.evaluate_batch(requests)
        elapsed = time.perf_counter() - start
    assert [_signature(r) for r in results] == reference
    assert [w.wait(timeout=30) for w in workers] == [0, 0]
    print(
        f"\ncluster backend: {len(requests)} requests over 2 localhost "
        f"workers in {elapsed * 1e3:.1f} ms"
    )
