"""Engine subsystem: LRU cache, registry, batched kernels, batch engine.

Includes the registry-driven mapper property tests: every mapper that
the registry can name must return a valid permutation, satisfy
``Jmax <= Jsum`` (each node's outgoing cut is a summand of the total),
and produce bit-identical costs on the cold and cache-hit paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import (
    CartesianGrid,
    EvaluationEngine,
    MappingRequest,
    NodeAllocation,
    nearest_neighbor,
)
from repro.engine import LRUCache, create_mapper, list_mappers, resolve_mapper
from repro.engine.registry import spec_key
from repro.metrics.cost import (
    check_permutation,
    check_permutations,
    evaluate_mapping,
    evaluate_mappings_batch,
    node_of_vertex,
    node_of_vertex_batch,
    per_node_cut,
    per_node_cut_batch,
)
from repro.exceptions import MappingError

from .conftest import allocations_for, grids, stencils_for


class TestLRUCache:
    def test_get_or_compute_caches(self):
        cache = LRUCache(4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_hit_rate(self):
        cache = LRUCache(2)
        assert cache.stats().hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats().hit_rate == 0.5

    def test_reentrant_same_key_compute_does_not_deadlock(self):
        """A compute callback that calls back into the cache for the
        same key computes it again instead of deadlocking."""
        cache = LRUCache(4)
        calls = []

        def outer():
            calls.append("outer")
            return cache.get_or_compute("key", lambda: calls.append("inner") or 7)

        assert cache.get_or_compute("key", outer) == 7
        assert calls == ["outer", "inner"]
        assert cache.get("key") == 7

    def test_reentrant_fallback_counts_as_miss(self):
        """The reentrant compute serves nothing from the cache, so it
        must count as a miss — otherwise hit_rate silently overstates
        whenever callbacks re-enter."""
        cache = LRUCache(4)

        def outer():
            return cache.get_or_compute("key", lambda: 7)

        cache.get_or_compute("key", outer)
        stats = cache.stats()
        # outer miss + reentrant miss; the trailing get() hit below
        # keeps hit_rate honest
        assert stats.misses == 2
        assert cache.get("key") == 7
        assert cache.stats().hits == 1

    def test_failed_leader_promotes_a_waiter(self):
        """If one thread's compute raises, the exception reaches that
        thread alone, and a concurrent miss on the key stores its value."""
        import threading

        cache = LRUCache(4)
        leader_entered = threading.Event()
        release_leader = threading.Event()
        outcomes: dict[str, object] = {}

        def failing():
            leader_entered.set()
            assert release_leader.wait(timeout=10)
            raise RuntimeError("synthetic compute failure")

        def lead():
            try:
                cache.get_or_compute("key", failing)
            except RuntimeError as exc:
                outcomes["leader"] = str(exc)

        def wait_then_retry():
            outcomes["waiter"] = cache.get_or_compute("key", lambda: 99)

        leader = threading.Thread(target=lead)
        leader.start()
        assert leader_entered.wait(timeout=10)
        waiter = threading.Thread(target=wait_then_retry)
        waiter.start()
        release_leader.set()
        leader.join(timeout=10)
        waiter.join(timeout=10)
        assert outcomes["leader"] == "synthetic compute failure"
        assert outcomes["waiter"] == 99
        assert cache.get("key") == 99


class TestRegistry:
    def test_all_builtin_mappers_listed(self):
        assert set(list_mappers()) >= {
            "blocked",
            "random",
            "hyperplane",
            "kd_tree",
            "stencil_strips",
            "nodecart",
            "graphmap",
        }

    def test_create_mapper_returns_fresh_instances(self):
        a = create_mapper("blocked")
        b = create_mapper("blocked")
        assert isinstance(a, repro.Mapper)
        assert a is not b

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            create_mapper("does_not_exist")

    def test_resolve_passes_instances_through(self):
        mapper = repro.BlockedMapper()
        assert resolve_mapper(mapper) is mapper
        assert isinstance(resolve_mapper("blocked"), repro.BlockedMapper)

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_mapper(42)

    def test_spec_key_distinguishes_instances(self):
        assert spec_key("nodecart") == "nodecart"
        a, b = repro.BlockedMapper(), repro.BlockedMapper()
        assert spec_key(a) != spec_key(b)
        assert spec_key(a) == spec_key(a)


class TestBatchedKernels:
    @given(data=st.data(), grid=grids(max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_singles(self, data, grid):
        """Stacked kernels reproduce the per-mapping reference exactly."""
        stencil = data.draw(stencils_for(grid.ndim))
        alloc = data.draw(allocations_for(grid.size))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        perms = np.stack(
            [rng.permutation(grid.size) for _ in range(data.draw(st.integers(1, 5)))]
        )
        from repro.grid.graph import communication_edges

        edges = communication_edges(grid, stencil)
        nodes_batch = node_of_vertex_batch(perms, alloc)
        cuts_batch = per_node_cut_batch(edges, nodes_batch, alloc.num_nodes)
        costs_batch = evaluate_mappings_batch(grid, stencil, perms, alloc)
        for i, perm in enumerate(perms):
            nodes = node_of_vertex(perm, alloc)
            assert (nodes_batch[i] == nodes).all()
            cuts = per_node_cut(edges, nodes, alloc.num_nodes)
            assert (cuts_batch[i] == cuts).all()
            ref = evaluate_mapping(grid, stencil, perm, alloc)
            assert (costs_batch[i].jsum, costs_batch[i].jmax) == (ref.jsum, ref.jmax)
            assert costs_batch[i].total_edges == ref.total_edges
            assert costs_batch[i].bottleneck_node == ref.bottleneck_node

    def test_check_permutations_rejects_duplicates(self):
        with pytest.raises(MappingError):
            check_permutations(np.array([[0, 1, 2], [0, 0, 2]]), 3)

    def test_check_permutations_rejects_out_of_range(self):
        with pytest.raises(MappingError):
            check_permutations(np.array([[0, 1, 3]]), 3)

    def test_check_permutations_rejects_bad_shape(self):
        with pytest.raises(MappingError):
            check_permutations(np.arange(4), 4)

    def test_empty_edges(self):
        cuts = per_node_cut_batch(np.empty((0, 2), dtype=np.int64), np.zeros((3, 4), dtype=np.int64), 2)
        assert cuts.shape == (3, 2)
        assert (cuts == 0).all()


@pytest.mark.parametrize("name", sorted(list_mappers()))
class TestRegistryMapperProperties:
    """Satellite: hypothesis checks for every registry-discoverable mapper."""

    @given(data=st.data(), grid=grids(max_ndim=2, max_size=48))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_valid_permutation_and_jmax_le_jsum(self, name, data, grid):
        stencil = data.draw(stencils_for(grid.ndim))
        alloc = data.draw(allocations_for(grid.size))
        engine = EvaluationEngine(max_workers=1)
        result = engine.evaluate(MappingRequest(grid, stencil, alloc, name))
        if not result.ok:
            assert result.error  # rejection must carry a message
            return
        check_permutation(result.perm, grid.size)
        assert result.jmax <= result.jsum
        assert 0 <= result.jsum <= result.cost.total_edges

    @given(data=st.data(), grid=grids(max_ndim=2, max_size=48))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cache_hit_equals_cold_path(self, name, data, grid):
        """Re-evaluation through warm caches is bit-identical to cold."""
        stencil = data.draw(stencils_for(grid.ndim))
        alloc = data.draw(allocations_for(grid.size))
        request = MappingRequest(grid, stencil, alloc, name)
        engine = EvaluationEngine(max_workers=1)
        cold = engine.evaluate(request)
        warm = engine.evaluate(request)
        fresh = EvaluationEngine(max_workers=1).evaluate(request)
        for other in (warm, fresh):
            assert other.ok == cold.ok
            if cold.ok:
                assert (other.perm == cold.perm).all()
                assert (other.jsum, other.jmax) == (cold.jsum, cold.jmax)
                assert (other.cost.per_node == cold.cost.per_node).all()
        # the warm evaluation was served from a cache: costs on success,
        # the memoized rejection in the permutation cache otherwise
        if cold.ok:
            assert engine.cache_stats()["costs"].hits >= 1
        else:
            assert engine.cache_stats()["permutations"].hits >= 1


class TestEvaluationEngine:
    @pytest.fixture
    def instance(self):
        grid = CartesianGrid([8, 6])
        return grid, nearest_neighbor(2), NodeAllocation.homogeneous(4, 12)

    def test_results_in_input_order_with_tags(self, instance):
        grid, stencil, alloc = instance
        other_grid = CartesianGrid([6, 8])
        engine = EvaluationEngine()
        requests = [
            MappingRequest(grid, stencil, alloc, "blocked", tag=0),
            MappingRequest(other_grid, stencil, alloc, "hyperplane", tag=1),
            MappingRequest(grid, stencil, alloc, "kd_tree", tag=2),
            MappingRequest(other_grid, stencil, alloc, "blocked", tag=3),
        ]
        results = engine.evaluate_batch(requests)
        assert [r.request.tag for r in results] == [0, 1, 2, 3]
        assert all(r.ok for r in results)

    def test_duplicate_requests_computed_once(self, instance):
        grid, stencil, alloc = instance
        engine = EvaluationEngine(max_workers=1)
        requests = [MappingRequest(grid, stencil, alloc, "hyperplane")] * 5
        results = engine.evaluate_batch(requests)
        assert len(results) == 5
        assert engine.cache_stats()["permutations"].misses == 1
        assert all(r.perm is results[0].perm for r in results)

    def test_rejection_records_error(self, instance):
        grid, stencil, _ = instance
        hetero = NodeAllocation([11, 13, 12, 12])  # nodecart needs homogeneous
        engine = EvaluationEngine()
        result = engine.evaluate(MappingRequest(grid, stencil, hetero, "nodecart"))
        assert not result.ok
        assert result.perm is None and result.cost is None
        assert "homogeneous" in result.error

    def test_invalid_explicit_perm_fails_only_its_request(self, instance):
        """A malformed explicit perm must not abort the rest of the batch."""
        grid, stencil, alloc = instance
        engine = EvaluationEngine()
        bad = np.zeros(grid.size, dtype=np.int64)  # duplicates
        good, dup = engine.evaluate_batch(
            [
                MappingRequest(grid, stencil, alloc, "blocked"),
                MappingRequest(grid, stencil, alloc, "blocked", perm=bad),
            ]
        )
        assert good.ok
        assert not dup.ok and "permutation" in dup.error

    def test_wrong_length_perm_rejected_at_construction(self, instance):
        """A length-mismatched perm fails the constructor with a clear
        message instead of surfacing from inside the batch kernel."""
        grid, stencil, alloc = instance
        short = np.arange(grid.size - 1, dtype=np.int64)
        with pytest.raises(MappingError, match="every process exactly once"):
            MappingRequest(grid, stencil, alloc, "blocked", perm=short)

    def test_results_hash_by_identity(self, instance):
        grid, stencil, alloc = instance
        engine = EvaluationEngine()
        result = engine.evaluate(MappingRequest(grid, stencil, alloc, "blocked"))
        assert len({result, result}) == 1

    def test_explicit_perm_is_scored_not_mapped(self, instance):
        grid, stencil, alloc = instance
        rng = np.random.default_rng(3)
        perm = rng.permutation(grid.size)
        engine = EvaluationEngine()
        result = engine.evaluate(
            MappingRequest(grid, stencil, alloc, "blocked", perm=perm)
        )
        ref = evaluate_mapping(grid, stencil, perm, alloc)
        assert (result.jsum, result.jmax) == (ref.jsum, ref.jmax)

    def test_parallel_matches_serial(self, instance, monkeypatch):
        """Threads sharing one engine get the serial run's results byte
        for byte, even when their misses on one key overlap."""
        import sys
        import threading
        import time

        _, stencil, alloc = instance
        requests = [
            MappingRequest(CartesianGrid([n, 48 // n]), stencil, alloc, name)
            for n in (2, 4, 6, 8, 12)
            for name in ("blocked", "hyperplane", "stencil_strips", "kd_tree")
        ]

        def signature(result):
            cost = result.cost
            return (
                cost.jsum,
                cost.jmax,
                cost.total_edges,
                cost.bottleneck_node,
                cost.per_node.tobytes(),
                result.perm.tobytes(),
                result.error,
            )

        serial = [signature(r) for r in EvaluationEngine().evaluate_batch(requests)]

        class Slowed:
            """The registry's mapper, slowing each run so the threads'
            misses on one key overlap."""

            def __init__(self, name):
                self.mapper = resolve_mapper(name)

            def map_ranks(self, grid, stencil, alloc):
                time.sleep(0.005)
                return self.mapper.map_ranks(grid, stencil, alloc)

        monkeypatch.setattr("repro.engine.engine.resolve_mapper", Slowed)
        engine = EvaluationEngine()
        threads = 4
        barrier = threading.Barrier(threads)
        rows: dict[int, list] = {}

        def consume(t: int) -> None:
            # every thread its own order: batch or stream, rotated
            order = requests[t * 5 :] + requests[: t * 5]
            barrier.wait()
            if t % 2:
                results = list(engine.evaluate_stream(order))
            else:
                results = engine.evaluate_batch(order)
            by_request = {id(r.request): signature(r) for r in results}
            rows[t] = [by_request[id(request)] for request in requests]

        workers = [
            threading.Thread(target=consume, args=(t,)) for t in range(threads)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(rows) == list(range(threads))
        assert all(rows[t] == serial for t in range(threads))

    def test_edge_cache_shared_across_batches(self, instance):
        grid, stencil, alloc = instance
        engine = EvaluationEngine()
        engine.evaluate(MappingRequest(grid, stencil, alloc, "blocked"))
        engine.evaluate(MappingRequest(grid, stencil, alloc, "hyperplane"))
        stats = engine.cache_stats()["edges"]
        assert stats.misses == 1 and stats.hits == 1

    def test_structurally_equal_instances_share_cache(self, instance):
        grid, stencil, alloc = instance
        engine = EvaluationEngine()
        engine.evaluate(MappingRequest(grid, stencil, alloc, "blocked"))
        clone = MappingRequest(
            CartesianGrid(list(grid.dims)),
            nearest_neighbor(2),
            NodeAllocation.homogeneous(4, 12),
            "blocked",
        )
        engine.evaluate(clone)
        assert engine.cache_stats()["edges"].hits == 1
        assert engine.cache_stats()["permutations"].hits == 1

    def test_clear_caches(self, instance):
        grid, stencil, alloc = instance
        engine = EvaluationEngine()
        engine.evaluate(MappingRequest(grid, stencil, alloc, "blocked"))
        engine.clear_caches()
        for stats in engine.cache_stats().values():
            assert stats.size == 0

    def test_transient_mapper_instances_never_collide(self, instance):
        """Regression: keys must survive id() recycling of dead mappers.

        Evaluating transient, differently-configured mapper instances
        against one engine must never serve one mapper's cached result
        for another whose object happened to reuse the same memory.
        """
        grid, stencil, alloc = instance
        engine = EvaluationEngine(max_workers=1)
        for seed in range(20):
            result = engine.evaluate(
                MappingRequest(grid, stencil, alloc, repro.RandomMapper(seed))
            )
            expected = repro.RandomMapper(seed).map_ranks(grid, stencil, alloc)
            assert (result.perm == expected).all(), seed

    def test_cached_arrays_are_read_only(self, instance):
        """Engine results share cached buffers, so they must be frozen."""
        grid, stencil, alloc = instance
        engine = EvaluationEngine()
        a, b = engine.evaluate_batch(
            [
                MappingRequest(grid, stencil, alloc, "blocked"),
                MappingRequest(grid, stencil, alloc, "hyperplane"),
            ]
        )
        for arr in (a.perm, a.cost.per_node, engine.edges(grid, stencil)):
            with pytest.raises(ValueError):
                arr[0] = -1
        # sibling costs never share one buffer
        assert a.cost.per_node.base is not b.cost.per_node.base or (
            a.cost.per_node.base is None and b.cost.per_node.base is None
        )

    def test_requests_with_perms_are_hashable(self, instance):
        grid, stencil, alloc = instance
        perm = np.arange(grid.size, dtype=np.int64)
        a = MappingRequest(grid, stencil, alloc, "blocked", perm=perm)
        b = MappingRequest(grid, stencil, alloc, "blocked", perm=perm)
        assert len({a, b}) == 2  # identity semantics, but hashable
        assert a == a and a != b

    def test_contexts_sharing_engine_share_permutations(self):
        """Default (registry-name) mappers memoize across contexts."""
        from repro.experiments import EvaluationContext

        engine = EvaluationEngine(max_workers=1)
        EvaluationContext(4, 6, 2, engine=engine).scores("nearest_neighbor")
        misses = engine.cache_stats()["permutations"].misses
        second = EvaluationContext(4, 6, 2, engine=engine)
        second.scores("nearest_neighbor")
        assert engine.cache_stats()["permutations"].misses == misses

    def test_max_workers_validation(self):
        """The engine runs in the calling thread: only ``max_workers=1``
        (or the default) constructs, and any other width names the
        process backend."""
        EvaluationEngine(max_workers=1)
        for width in (0, 2, 8):
            with pytest.raises(ValueError, match="process:N"):
                EvaluationEngine(max_workers=width)

    def test_mappers_listing(self):
        assert EvaluationEngine.mappers() == list_mappers()
