"""Shared fixtures for the benchmark harness.

Every paper artefact (Figures 6-9, Tables II-VII) has one benchmark
module.  The pytest-benchmark timings measure this library's real cost
of regenerating the artefact; the artefact's *content* (scores, speedup
series, table rows) is printed to the report via ``--benchmark-*`` or by
running ``python -m repro.experiments <target>``.

Figure/table contexts are session-scoped: mappings are machine- and
size-independent, so they are computed once and shared.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CartesianGrid, MappingRequest, NodeAllocation, nearest_neighbor
from repro.experiments import EvaluationContext
from repro.experiments.context import DEFAULT_MAPPERS
from repro.grid.dims import dims_create

_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Shared figure8-style backend workload: distinct grids x deterministic
#: mappers, used by the sharding and cluster benchmark smokes.
WORKLOAD_NODE_COUNTS = (8, 10, 12, 15, 18, 20)
WORKLOAD_PROCESSES_PER_NODE = 24
WORKLOAD_MAPPERS = ("blocked", "hyperplane", "kd_tree", "stencil_strips")


def backend_workload(sweeps: int = 1) -> list[MappingRequest]:
    """A multi-instance request list exercising every backend the same way."""
    stencil = nearest_neighbor(2)
    requests = []
    for sweep in range(sweeps):
        for num_nodes in WORKLOAD_NODE_COUNTS:
            p = num_nodes * WORKLOAD_PROCESSES_PER_NODE
            grid = CartesianGrid(dims_create(p, 2))
            alloc = NodeAllocation.homogeneous(
                num_nodes, WORKLOAD_PROCESSES_PER_NODE
            )
            for name in WORKLOAD_MAPPERS:
                requests.append(
                    MappingRequest(
                        grid, stencil, alloc, name, tag=(sweep, num_nodes, name)
                    )
                )
    return requests


def _spawn_worker(port: int) -> subprocess.Popen:
    """A serial ``work`` subprocess serving the daemon on *port*."""
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


def result_signature(result):
    """The byte-identity contract every backend must reproduce."""
    return (
        result.request.tag,
        result.jsum,
        result.jmax,
        None if result.cost is None else result.cost.per_node.tobytes(),
    )


def _context(num_nodes: int) -> EvaluationContext:
    return EvaluationContext(num_nodes, 48, 2, mappers=DEFAULT_MAPPERS())


@pytest.fixture(scope="session")
def context_n50() -> EvaluationContext:
    """The Figure 6 / Tables II, IV, VI instance (grid 50 x 48)."""
    ctx = _context(50)
    _warm(ctx)
    return ctx


@pytest.fixture(scope="session")
def context_n100() -> EvaluationContext:
    """The Figure 7 / Tables III, V, VII instance (grid 75 x 64)."""
    ctx = _context(100)
    _warm(ctx)
    return ctx


def _warm(ctx: EvaluationContext) -> None:
    """Pre-compute all mappings so benchmarks measure evaluation only."""
    for family in ("nearest_neighbor", "nearest_neighbor_with_hops", "component"):
        for mapper in ctx.mapper_names():
            ctx.mapping(family, mapper)
