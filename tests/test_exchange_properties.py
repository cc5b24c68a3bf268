"""Property-based tests of the neighbour-exchange data plane.

The last property uses the exchange as an independent oracle of the
cost model: ranks that send their node id through ``neighbor_alltoall``
count the inter-node messages a mapping causes without the edge list
or the scoring kernels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CartesianGrid, StencilProgramWorkload
from repro.metrics.cost import evaluate_mapping, weighted_cut_bytes
from repro.mpisim.neighbor import neighbor_alltoall

from .conftest import allocations_for, grids, stencils_for


@given(grids(max_ndim=3, max_size=80), st.data())
@settings(max_examples=40, deadline=None)
def test_conservation(grid, data):
    """Every payload is delivered exactly once or dropped at a boundary.

    The multiset of delivered values equals the multiset of sent values
    whose target stays inside the grid.
    """
    stencil = data.draw(stencils_for(grid.ndim))
    p, k = grid.size, stencil.k
    send = np.arange(p * k, dtype=np.float64).reshape(p, k, 1)
    recv, valid = neighbor_alltoall(grid, stencil, send, fill_value=np.nan)

    delivered = sorted(recv[valid][:, 0].tolist())
    expected = []
    for u in range(p):
        for j, off in enumerate(stencil.offsets):
            if grid.shift(u, off) is not None:
                expected.append(float(send[u, j, 0]))
    assert delivered == sorted(expected)


@given(grids(max_ndim=2, max_size=64), st.data())
@settings(max_examples=30, deadline=None)
def test_periodic_grid_loses_nothing(grid, data):
    """On fully periodic grids every slot is valid."""
    periodic = CartesianGrid(grid.dims, periods=[True] * grid.ndim)
    stencil = data.draw(stencils_for(grid.ndim))
    send = np.ones((periodic.size, stencil.k, 1))
    _, valid = neighbor_alltoall(periodic, stencil, send)
    assert valid.all()


@given(grids(max_ndim=2, max_size=64), st.data())
@settings(max_examples=30, deadline=None)
def test_pairing_inverse(grid, data):
    """recv[u, j] originates from shift(u, -R_j) when that rank exists."""
    stencil = data.draw(stencils_for(grid.ndim))
    p, k = grid.size, stencil.k
    send = np.empty((p, k, 1))
    send[:, :, 0] = np.arange(p)[:, None]  # payload = sender rank
    recv, valid = neighbor_alltoall(grid, stencil, send, fill_value=-1.0)
    for u in range(p):
        for j, off in enumerate(stencil.offsets):
            src = grid.shift(u, [-c for c in off])
            if src is None:
                assert not valid[u, j]
                assert recv[u, j, 0] == -1.0
            else:
                assert valid[u, j]
                assert recv[u, j, 0] == src


@given(grids(max_ndim=2, max_size=48), st.data())
@settings(max_examples=25, deadline=None)
def test_exchange_preserves_dtype_and_shape(grid, data):
    stencil = data.draw(stencils_for(grid.ndim))
    shape = (grid.size, stencil.k, 2, 3)
    send = np.zeros(shape, dtype=np.float32)
    recv, valid = neighbor_alltoall(grid, stencil, send)
    assert recv.shape == shape
    assert recv.dtype == np.float32
    assert valid.shape == (grid.size, stencil.k)


def _cut_by_sender(grid, stencil, vertex_node, num_nodes, offset_bytes=None):
    """Inter-node messages each node sends in one exchange, counted at
    the receivers.

    Every rank sends its node id in each slot; a valid receive slot
    whose payload names another node is one inter-node message, charged
    to the sending node (weighted by its offset's bytes when given).
    """
    send = np.repeat(vertex_node[:, None, None], stencil.k, axis=1)
    recv, valid = neighbor_alltoall(grid, stencil, send, fill_value=-1)
    sender = recv[:, :, 0]
    cut = valid & (sender != vertex_node[:, None])
    weights = None
    if offset_bytes is not None:
        per_slot = [offset_bytes[offset] for offset in stencil.offsets]
        weights = np.broadcast_to(np.array(per_slot, dtype=np.float64), cut.shape)[cut]
    return np.bincount(sender[cut], weights=weights, minlength=num_nodes)


@given(grids(max_ndim=3, max_size=80), st.data())
@settings(max_examples=100, deadline=None)
def test_exchange_counts_the_mapping_cost(grid, data):
    """The messages a simulated exchange delivers across nodes are the
    mapping's ``Jsum``, ``Jmax``, weighted bytes and program cost."""
    periods = data.draw(
        st.lists(st.booleans(), min_size=grid.ndim, max_size=grid.ndim)
    )
    grid = CartesianGrid(grid.dims, periods=periods)
    stencil = data.draw(stencils_for(grid.ndim))
    alloc = data.draw(allocations_for(grid.size))
    perm = np.array(data.draw(st.permutations(range(grid.size))), dtype=np.int64)
    # old rank r (on the blocked node of its rank) occupies vertex perm[r]
    vertex_node = np.empty(grid.size, dtype=np.int64)
    vertex_node[perm] = np.repeat(np.arange(alloc.num_nodes), alloc.node_sizes)

    cost = evaluate_mapping(grid, stencil, perm, alloc)
    sent = _cut_by_sender(grid, stencil, vertex_node, alloc.num_nodes)
    assert sent.sum() == cost.jsum
    assert sent.tolist() == cost.per_node.tolist()
    assert sent.max() == cost.jmax

    volumes = data.draw(
        st.lists(st.integers(0, 1 << 16), min_size=stencil.k, max_size=stencil.k)
    )
    offset_bytes = dict(zip(stencil.offsets, volumes))
    sent_bytes = _cut_by_sender(
        grid, stencil, vertex_node, alloc.num_nodes, offset_bytes
    )
    assert (sent_bytes.sum(), sent_bytes.max()) == weighted_cut_bytes(
        grid, stencil, perm, alloc, offset_bytes
    )

    program = StencilProgramWorkload(
        grid, [stencil, data.draw(stencils_for(grid.ndim))]
    )
    per_stage = sum(
        _cut_by_sender(grid, stage, vertex_node, alloc.num_nodes)
        for _, stage in program.stages
    )
    scored = evaluate_mapping(
        grid, program.stencil, perm, alloc, edges=program.comm_edges()
    )
    assert per_stage.sum() == scored.jsum
    assert per_stage.tolist() == scored.per_node.tolist()
