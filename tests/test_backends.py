"""Execution backends, streaming evaluation and the cache directory.

Includes the regression tests of the figure8 reduction bugs: a failed
blocked baseline must degrade to NaN cells plus a warning (not an
``AttributeError``), and zero-baseline ratios must follow the single
definition in :func:`repro.metrics.cost.reduction_over_blocked`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CartesianGrid,
    EvaluationEngine,
    MappingRequest,
    NodeAllocation,
    ProcessBackend,
    nearest_neighbor,
    resolve_backend,
)
from repro.engine import Backend, DiskStore
from repro.engine.diskcache import CACHE_DIR_ENV, cell_key, resolve_cache_dir
from repro.experiments import figure8_reductions, instance_set
from repro.metrics.cost import MappingCost


def _requests(tagger=lambda i, name: (i, name)) -> list[MappingRequest]:
    """A small multi-instance workload (4 grids x 4 mappers)."""
    stencil = nearest_neighbor(2)
    requests = []
    for i, (nodes, ppn) in enumerate([(4, 12), (6, 8), (5, 10), (3, 16)]):
        grid = CartesianGrid([nodes, ppn])
        alloc = NodeAllocation.homogeneous(nodes, ppn)
        for name in ("blocked", "hyperplane", "stencil_strips", "nodecart"):
            requests.append(
                MappingRequest(grid, stencil, alloc, name, tag=tagger(i, name))
            )
    return requests


def _weighted_requests(tagger=lambda i, name: (i, name)) -> list[MappingRequest]:
    """The same workload with the batch-level weighted-bytes metric."""
    from repro.engine import weighted_bytes_metric
    from repro.grid.stencil import nearest_neighbor_with_hops
    from repro.workloads import halo_exchange_volume

    stencil = nearest_neighbor_with_hops(2)
    requests = []
    for i, (nodes, ppn) in enumerate([(4, 12), (6, 8), (5, 10), (3, 16)]):
        grid = CartesianGrid([nodes, ppn])
        alloc = NodeAllocation.homogeneous(nodes, ppn)
        metric = weighted_bytes_metric(
            halo_exchange_volume(grid, stencil, (8, 8), 4)
        )
        for name in ("blocked", "hyperplane", "stencil_strips", "nodecart"):
            requests.append(
                MappingRequest(
                    grid,
                    stencil,
                    alloc,
                    name,
                    metrics=(metric,),
                    tag=tagger(i, name),
                )
            )
    return requests


def _signature(result):
    """Everything a result carries, in comparable (byte-exact) form."""
    if result.cost is None:
        return (result.request.tag, None, result.error)
    return (
        result.request.tag,
        (
            result.cost.jsum,
            result.cost.jmax,
            result.cost.total_edges,
            result.cost.bottleneck_node,
            result.cost.per_node.tobytes(),
            result.perm.tobytes(),
        ),
        result.error,
        tuple(sorted(result.metrics.items())),
    )


@pytest.fixture(scope="module")
def serial_results():
    return EvaluationEngine(max_workers=1).evaluate_batch(_requests())


class TestWeightedMetricAcrossBackends:
    """`weighted_cut_bytes` as a batch metric is backend-independent."""

    @pytest.fixture(scope="class")
    def serial_weighted(self):
        with EvaluationEngine(max_workers=1) as engine:
            results = engine.evaluate_batch(_weighted_requests())
        assert all(r.metrics for r in results if r.cost is not None)
        return results

    def test_process_stream_byte_identical(self, serial_weighted):
        with ProcessBackend(2) as backend:
            streamed = list(backend.evaluate_stream(_weighted_requests()))
        assert sorted(map(_signature, streamed)) == sorted(
            map(_signature, serial_weighted)
        )

    def test_process_backend_byte_identical(self, serial_weighted):
        with ProcessBackend(2) as backend:
            results = backend.evaluate_batch(_weighted_requests())
        assert list(map(_signature, results)) == list(
            map(_signature, serial_weighted)
        )

    def test_matches_serial_weighted_cut_bytes(self, serial_weighted):
        from repro.grid.stencil import nearest_neighbor_with_hops
        from repro.metrics.cost import weighted_cut_bytes
        from repro.workloads import halo_exchange_volume

        stencil = nearest_neighbor_with_hops(2)
        for result in serial_weighted:
            if result.cost is None:
                continue
            request = result.request
            volumes = halo_exchange_volume(request.grid, stencil, (8, 8), 4)
            cut, bottleneck = weighted_cut_bytes(
                request.grid, stencil, result.perm, request.alloc, volumes
            )
            assert result.metrics["weighted_cut_bytes"] == cut
            assert result.metrics["weighted_bottleneck_bytes"] == bottleneck


class TestEvaluateStream:
    def test_serial_stream_matches_batch(self):
        engine = EvaluationEngine(max_workers=1)
        batch = engine.evaluate_batch(_requests())
        stream = list(engine.evaluate_stream(_requests()))
        assert sorted(map(_signature, stream)) == sorted(map(_signature, batch))

    def test_parallel_stream_matches_batch(self):
        batch = EvaluationEngine().evaluate_batch(_requests())
        with ProcessBackend(2) as backend:
            stream = list(backend.evaluate_stream(_requests()))
        assert sorted(map(_signature, stream)) == sorted(map(_signature, batch))

    def test_stream_is_lazy_group_order(self):
        """Within one instance group, streaming keeps request order."""
        engine = EvaluationEngine(max_workers=1)
        grid = CartesianGrid([6, 8])
        alloc = NodeAllocation.homogeneous(6, 8)
        stencil = nearest_neighbor(2)
        requests = [
            MappingRequest(grid, stencil, alloc, name, tag=name)
            for name in ("blocked", "hyperplane", "kd_tree")
        ]
        tags = [r.request.tag for r in engine.evaluate_stream(requests)]
        assert tags == ["blocked", "hyperplane", "kd_tree"]

    def test_closing_generator_early_is_clean(self, monkeypatch):
        """Closing the stream after the first group evaluates no other
        group: no mapper runs again."""
        engine = EvaluationEngine()
        stream = engine.evaluate_stream(_requests())
        first = next(stream)
        assert first.ok or first.error

        def refuse(*args):
            raise AssertionError("a group ran after the stream closed")

        monkeypatch.setattr("repro.engine.engine.resolve_mapper", refuse)
        stream.close()  # must not raise or evaluate the rest


class TestProcessBackend:
    def test_batch_byte_identical_to_serial(self, serial_results):
        with ProcessBackend(2) as backend:
            results = backend.evaluate_batch(_requests())
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )

    def test_stream_byte_identical_to_serial(self, serial_results):
        with ProcessBackend(2) as backend:
            streamed = list(backend.evaluate_stream(_requests()))
        assert sorted(map(_signature, streamed)) == sorted(
            map(_signature, serial_results)
        )

    def test_figure8_instances_match_serial(self):
        """Acceptance: identical costs on Figure 8 instances."""
        stencil2, stencil3 = nearest_neighbor(2), nearest_neighbor(3)
        requests = [
            MappingRequest(
                inst.grid,
                stencil2 if inst.ndims == 2 else stencil3,
                inst.allocation,
                name,
                tag=(inst.label(), name),
            )
            for inst in instance_set()[::12]
            for name in ("blocked", "hyperplane", "stencil_strips")
        ]
        serial = EvaluationEngine(max_workers=1).evaluate_batch(requests)
        with ProcessBackend(2) as backend:
            sharded = backend.evaluate_batch(requests)
        assert list(map(_signature, sharded)) == list(map(_signature, serial))

    def test_results_keep_original_request_objects(self):
        requests = _requests()
        with ProcessBackend(2) as backend:
            results = backend.evaluate_batch(requests)
        assert all(r.request is req for r, req in zip(results, requests))

    def test_unpicklable_tags_survive(self):
        """Tags never cross the process boundary."""
        marker = object()
        requests = _requests(tagger=lambda i, name: (i, name, marker))
        with ProcessBackend(2) as backend:
            results = backend.evaluate_batch(requests)
        assert all(r.request.tag[2] is marker for r in results)

    def test_rejections_propagate(self):
        grid = CartesianGrid([8, 6])
        hetero = NodeAllocation([11, 13, 12, 12])
        request = MappingRequest(grid, nearest_neighbor(2), hetero, "nodecart")
        with ProcessBackend(1) as backend:
            (result,) = backend.evaluate_batch([request])
        assert not result.ok
        assert "homogeneous" in result.error

    def test_explicit_perms_are_scored(self):
        grid = CartesianGrid([8, 6])
        alloc = NodeAllocation.homogeneous(4, 12)
        perm = np.random.default_rng(7).permutation(grid.size)
        request = MappingRequest(grid, nearest_neighbor(2), alloc, "blocked", perm=perm)
        serial = EvaluationEngine(max_workers=1).evaluate(request)
        with ProcessBackend(1) as backend:
            (sharded,) = backend.evaluate_batch([request])
        assert (sharded.jsum, sharded.jmax) == (serial.jsum, serial.jmax)

    def test_result_buffers_are_read_only(self):
        with ProcessBackend(1) as backend:
            (result,) = backend.evaluate_batch(_requests()[:1])
        for arr in (result.perm, result.cost.per_node):
            with pytest.raises(ValueError):
                arr[0] = -1

    def test_shards_never_split_an_instance(self):
        backend = ProcessBackend(2, shards_per_worker=8)
        requests = _requests()
        shards = backend._shards(requests)
        assert sorted(i for shard in shards for i, _ in shard) == list(
            range(len(requests))
        )
        seen: dict[tuple, int] = {}
        for shard_id, shard in enumerate(shards):
            for _, request in shard:
                key = request.instance_key
                assert seen.setdefault(key, shard_id) == shard_id

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)
        with pytest.raises(ValueError):
            ProcessBackend(1, shards_per_worker=0)

    def test_unknown_engine_option_fails_at_construction(self):
        """A misspelt or removed option raises here, naming the option,
        instead of breaking the pool on the first batch."""
        with pytest.raises(TypeError, match="bogus"):
            ProcessBackend(2, bogus=1)
        with pytest.raises(TypeError, match="edge_cache"):
            resolve_backend("process:2", edge_cache=4)


class TestResolveBackend:
    def test_default_is_the_engine(self):
        """The engine itself is the in-process backend."""
        backend = resolve_backend(None)
        assert isinstance(backend, EvaluationEngine)
        assert isinstance(backend, Backend)

    def test_serial(self):
        assert isinstance(resolve_backend("serial"), EvaluationEngine)
        assert isinstance(resolve_backend("serial:1"), EvaluationEngine)

    def test_thread_with_count(self):
        """There is no thread tier: a ``thread`` spec, with or without a
        count, is an unknown spec, and so is an engine wider than one."""
        for spec in ("thread", "thread:2", "thread:3"):
            with pytest.raises(ValueError, match="unknown backend spec"):
                resolve_backend(spec)
        with pytest.raises(ValueError, match="process:N"):
            EvaluationEngine(max_workers=2)
        with pytest.raises(ValueError, match="process:N"):
            resolve_backend("serial", max_workers=2)

    def test_process_with_count(self):
        backend = resolve_backend("process:2")
        assert isinstance(backend, ProcessBackend)
        assert isinstance(backend, Backend)
        assert backend.num_workers == 2

    def test_shards_override(self):
        assert resolve_backend("process:3", shards=5).num_workers == 5
        assert resolve_backend("process", shards=2).num_workers == 2

    def test_instance_passthrough(self):
        backend = EvaluationEngine()
        assert resolve_backend(backend) is backend
        with pytest.raises(TypeError):
            resolve_backend(backend, shards=2)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(ValueError):
            resolve_backend("process:lots")
        with pytest.raises(ValueError, match="process:N"):
            resolve_backend("serial", shards=4)
        with pytest.raises(ValueError, match="process:N"):
            resolve_backend(None, shards=2)


class TestDiskEdgeCache:
    """Cache-directory resolution, and the result store that is the one
    persistent tier: the cell key is structural, bad cells recompute."""

    def _instance(self):
        return CartesianGrid([8, 6]), nearest_neighbor(2)

    def _request(self, grid=None, stencil=None) -> MappingRequest:
        default_grid, default_stencil = self._instance()
        return MappingRequest(
            grid or default_grid,
            stencil or default_stencil,
            NodeAllocation.homogeneous(8, 6),
            "hyperplane",
        )

    def test_corrupt_file_degrades_to_recompute(self, tmp_path):
        request = self._request()
        path = tmp_path / f"result-{cell_key(request)}.cell"
        path.write_bytes(b"not a cell")
        engine = EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path)
        (result,) = engine.evaluate_batch([request])
        assert result.ok
        stats = engine.disk_store_stats()["result"]
        assert (stats.misses, stats.corrupt, stats.stores) == (1, 1, 1)
        # the corrupt entry was replaced by a valid one
        fresh = EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path)
        (again,) = fresh.evaluate_batch([request])
        assert fresh.disk_store_stats()["result"].hits == 1
        assert again.perm.tobytes() == result.perm.tobytes()

    def test_key_is_structural(self):
        grid, stencil = self._instance()
        same = cell_key(self._request(CartesianGrid([8, 6]), nearest_neighbor(2)))
        assert cell_key(self._request(grid, stencil)) == same
        periodic = CartesianGrid([8, 6], periods=[True, False])
        assert cell_key(self._request(periodic, stencil)) != same

    def test_key_ignores_offset_order(self):
        """Stencil equality is set-based; permuted offset orders must
        share one on-disk cell, like they share one in-memory entry."""
        from repro import Stencil

        grid, stencil = self._instance()
        permuted = Stencil(list(reversed(stencil.offsets)))
        assert permuted == stencil
        assert cell_key(self._request(grid, permuted)) == cell_key(
            self._request(grid, stencil)
        )

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        engine = EvaluationEngine(max_workers=1)
        engine.evaluate_batch([self._request()])
        assert engine.disk_store_stats()["result"].stores == 1
        assert [p.name.split("-")[0] for p in tmp_path.iterdir()] == ["result"]

    def test_disabled_without_configuration(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        engine = EvaluationEngine(max_workers=1)
        assert engine.disk_store_stats() == {}

    def test_resolve_cache_dir_empty_disables(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        assert resolve_cache_dir(None) is None

    def test_unwritable_directory_degrades_gracefully(self):
        store = DiskStore("/proc/definitely/not/writable")
        assert store.store("a" * 64, (None, None, "rejected", {})) is False
        assert store.stats().stores == 0

    def test_zero_byte_file_degrades_to_recompute(self, tmp_path):
        """An empty file (a writer killed before any byte) must count
        as a corrupt miss and a recompute, not crash the sweep."""
        request = self._request()
        (tmp_path / f"result-{cell_key(request)}.cell").write_bytes(b"")
        engine = EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path)
        (result,) = engine.evaluate_batch([request])
        assert result.ok
        stats = engine.disk_store_stats()["result"]
        assert (stats.misses, stats.corrupt) == (1, 1)

    def test_process_backend_workers_share_cache(self, tmp_path):
        requests = _requests()
        with ProcessBackend(2, disk_cache_dir=tmp_path) as backend:
            backend.evaluate_batch(requests)
        # one cell per request, published by whichever worker ran it
        files = {p.name for p in tmp_path.iterdir()}
        assert files == {f"result-{cell_key(r)}.cell" for r in requests}


class TestDriverEngineLifecycle:
    def test_figure8_closes_its_private_engine(self):
        """A default-constructed engine's worker threads must not outlive
        the sweep (the drivers close engines they create themselves)."""
        import threading

        before = set(threading.enumerate())
        figure8_reductions(
            "nearest_neighbor",
            mappers={"hyperplane": "hyperplane", "kd_tree": "kd_tree"},
            instances=instance_set()[:3],
        )
        leaked = [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith("repro-engine")
        ]
        assert not leaked


class TestFigure8Regressions:
    """The two reduction bugs: failed baseline and zero-baseline ratio."""

    def _poisoned_engine(self, inst, *, perm, cost):
        """Engine whose caches hold a synthetic 'blocked' entry for *inst*.

        The blocked baseline never fails or scores zero naturally, so the
        regressions seed the (white-box) engine caches with the failure
        mode under test; keys mirror ``EvaluationEngine.permutation`` and
        the cost-cache entries of ``_evaluate_group``.
        """
        engine = EvaluationEngine(max_workers=1)
        stencil = nearest_neighbor(inst.grid.ndim)
        key = (inst.grid, stencil, inst.allocation, "blocked")
        engine._perm_cache.put(key, perm)
        if cost is not None:
            engine._cost_cache.put(key, cost)
        return engine

    def test_failed_blocked_baseline_yields_nan_and_warning(self):
        inst = instance_set()[0]
        engine = self._poisoned_engine(
            inst, perm=(None, "synthetic baseline failure"), cost=None
        )
        with pytest.warns(RuntimeWarning, match="blocked baseline failed"):
            red = figure8_reductions(
                "nearest_neighbor",
                mappers={"hyperplane": "hyperplane"},
                instances=[inst],
                engine=engine,
            )
        assert np.isnan(red["hyperplane"]["jsum"][0])
        assert np.isnan(red["hyperplane"]["jmax"][0])

    def test_zero_baseline_ratio_is_inf_not_one(self):
        inst = instance_set()[0]
        identity = np.arange(inst.grid.size, dtype=np.int64)
        identity.setflags(write=False)
        zero_cost = MappingCost(
            jsum=0,
            jmax=0,
            total_edges=0,
            per_node=np.zeros(inst.num_nodes, dtype=np.int64),
            bottleneck_node=0,
        )
        engine = self._poisoned_engine(
            inst, perm=(identity, None), cost=zero_cost
        )
        red = figure8_reductions(
            "nearest_neighbor",
            mappers={"hyperplane": "hyperplane"},
            instances=[inst],
            engine=engine,
        )
        # hyperplane has nonzero cost over a zero baseline: inf, not 1.0
        assert np.isinf(red["hyperplane"]["jsum"][0])
        assert np.isinf(red["hyperplane"]["jmax"][0])


class TestSharedEdgeTransport:
    """Process workers build their own edges, and a fresh pool answers
    from the result cells a cold one stored; either way, results must be
    byte-identical to the serial engine's."""

    def test_weighted_metrics_cross_shared_transport(self, tmp_path):
        import os

        serial = EvaluationEngine(max_workers=1).evaluate_batch(
            _weighted_requests()
        )
        # A cold pool builds the edges and stores every cell; a fresh
        # pool's workers then answer every request from the store.
        published = {}
        for phase in ("build", "store"):
            with ProcessBackend(2, disk_cache_dir=tmp_path) as backend:
                results = backend.evaluate_batch(_weighted_requests())
            assert [_signature(r) for r in results] == [
                _signature(r) for r in serial
            ], phase
            cells = {path.name: path.stat() for path in tmp_path.iterdir()}
            assert len(cells) == len(serial), phase
            if not published:
                published = {name: stat.st_ino for name, stat in cells.items()}
                for path in tmp_path.iterdir():
                    os.utime(path, (0, 0))  # a later load shows as a bump
        # Every cell was loaded (a hit bumps its mtime) and none was
        # published again (a publish replaces the file, and its inode).
        assert {name: stat.st_ino for name, stat in cells.items()} == published
        assert all(stat.st_mtime > 0 for stat in cells.values())
