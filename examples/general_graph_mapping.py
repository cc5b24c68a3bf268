#!/usr/bin/env python3
"""General (non-Cartesian) workloads through the first-class workload axis.

The paper compares against VieM because applications are not always
Cartesian: coupled multi-physics codes, irregular meshes, or task graphs
produce arbitrary communication patterns.  Workloads are a first-class
axis of the evaluation stack — the same ``SweepSpec``/``MappingRequest``
pipeline (with all of its caching, batching and backends) evaluates

* structured grid x stencil products (``CartesianWorkload``),
* multi-stage stencil programs whose per-stage halo exchanges merge into
  one weighted communication graph (``StencilProgramWorkload``),
* irregular general graphs (``GraphWorkload``).

This example sweeps all three families over the paper's mappers on any
backend.  Cartesian-capable mappers evaluate the structured instances;
graph instances are served by ``graphmap`` (the VieM stand-in) while the
structured-only algorithms surface "not applicable" cells rather than
crashes.

Run:  python examples/general_graph_mapping.py [--backend serial|process:4|service:PORT]
"""

import argparse

import repro
from repro.metrics.cost import node_of_vertex
from repro.sweep import WORKLOAD_AXIS
from repro.workloads import (
    CartesianWorkload,
    StencilProgramWorkload,
    as_workload,
    clustered_workload,
    random_sparse_workload,
)


def build_spec(alloc: repro.NodeAllocation) -> repro.SweepSpec:
    """Instances x mappers over the three workload families."""
    p = alloc.total_processes
    grid = repro.CartesianGrid(repro.dims_create(p, 2))
    workloads = [
        ("cartesian", CartesianWorkload(grid, repro.nearest_neighbor(2))),
        (
            "program",
            StencilProgramWorkload(
                grid,
                [
                    ("advect", repro.nearest_neighbor(2)),
                    ("diffuse", repro.nearest_neighbor_with_hops(2)),
                ],
            ),
        ),
        ("random", as_workload(random_sparse_workload(p, degree=4, seed=1))),
        (
            "clustered",
            as_workload(
                clustered_workload(
                    alloc.num_nodes,
                    alloc.node_sizes[0],
                    intra_degree=6,
                    inter_links=2,
                    seed=1,
                )
            ),
        ),
    ]
    return repro.SweepSpec(
        instances=[
            repro.InstanceSpec.from_workload(w, alloc, label=label)
            for label, w in workloads
        ],
        stencils=[WORKLOAD_AXIS],
        mappers=["blocked", "hyperplane", "stencil_strips", "graphmap"],
        metrics=[
            repro.topology_cut_metric(
                repro.Torus3DTopology((2, 2, 2)), contention=False
            )
        ],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        default="serial",
        metavar="SPEC",
        help="execution backend: serial, process[:N] or "
        "service:[HOST:]PORT (default: serial)",
    )
    args = parser.parse_args()

    alloc = repro.NodeAllocation.homogeneous(8, 16)
    spec = build_spec(alloc)
    results = repro.run(spec, backend=args.backend)

    print(
        f"{alloc.total_processes} processes on {alloc.num_nodes} nodes "
        f"x {alloc.node_sizes[0]}, backend={args.backend}\n"
    )
    print(results.to_table())

    # Jsum pivot: where structure helps and where only graphmap applies.
    print("\nJsum by workload x mapper (None = mapper not applicable):")
    for instance, row in results.pivot(values="jsum").items():
        cells = "  ".join(f"{m}={v}" for m, v in row.items())
        print(f"  {instance:<10} {cells}")

    # The clustered workload has a known near-optimal structure: one
    # cluster per node cuts only the coupling links.
    best = results.filter(instance="clustered", mapper="graphmap").rows[0]
    nodes = node_of_vertex(best.result.perm, alloc)
    size = alloc.node_sizes[0]
    purity = sum(
        1
        for c in range(alloc.num_nodes)
        if len(set(nodes[c * size : (c + 1) * size].tolist())) == 1
    )
    print(
        f"\nclustered workload: {purity}/{alloc.num_nodes} clusters placed "
        "on a single node"
    )


if __name__ == "__main__":
    main()
