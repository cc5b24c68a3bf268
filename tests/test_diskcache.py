"""The persistent result-cell store and the engine's use of it.

Covers the persistence layer's failure modes — truncated, corrupt,
misfiled or wrong-shaped entries count as misses (never errors), cells
the file layout cannot carry are refused, a full disk or an unreadable
entry degrades to a recompute, concurrent writers publish only complete
entries, ``clear`` removes exactly the store's own files — plus the
layout's round trip and a fuzzer as hypothesis properties, counter
consistency under a threaded hammer, and the result store warming a
fresh engine.
"""

from __future__ import annotations

import errno
import math
import os
import pickle
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    CartesianGrid,
    EvaluationEngine,
    MappingRequest,
    NodeAllocation,
    nearest_neighbor,
)
from repro.engine import DiskStore, weighted_bytes_metric
from repro.engine import diskcache
from repro.engine.diskcache import (
    cell_key,
    instance_payload,
    mapper_payload,
    metric_payload,
    request_payload,
    stable_digest,
)
from repro.metrics.cost import MappingCost

KEY = "a" * 64
OTHER = "b" * 64


def _instance():
    grid = CartesianGrid([4, 12])
    return grid, nearest_neighbor(2), NodeAllocation.homogeneous(4, 12)


def _cost(**fields) -> MappingCost:
    """A cost with small valid fields, overridden by *fields*."""
    values = dict(
        jsum=1, jmax=1, total_edges=2, per_node=np.zeros(2, np.int64),
        bottleneck_node=0,
    )
    values.update(fields)
    return MappingCost(**values)


_EXPLOITED: list = []


def _exploit() -> tuple:
    _EXPLOITED.append("ran")
    return (None, None, "exploited", {})


class _Exploit:
    """Unpickles by calling :func:`_exploit`: proof that code ran."""

    def __reduce__(self):
        return (_exploit, ())


def _cell(fill: int = 0, size: int = 8) -> tuple:
    """A well-formed ``(perm, cost, error, metrics)`` result cell."""
    cost = MappingCost(
        jsum=fill, jmax=fill, total_edges=size, per_node=np.zeros(2),
        bottleneck_node=0,
    )
    return (np.full(size, fill, dtype=np.int64), cost, None, {"m": 1.0})


class TestDiskStore:
    def test_round_trip_and_missing(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.load(KEY) is None
        cell = _cell(3)
        assert store.store(KEY, cell) is True
        perm, cost, error, metrics = store.load(KEY)
        np.testing.assert_array_equal(perm, cell[0])
        assert (cost.jsum, error, metrics) == (3, None, {"m": 1.0})
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.corrupt == 0  # an absent entry is a plain miss
        assert stats.entries == 1 and stats.total_bytes > 0
        assert [p.name for p in tmp_path.iterdir()] == [f"result-{KEY}.cell"]

    def test_rejection_cell_round_trips(self, tmp_path):
        store = DiskStore(tmp_path)
        store.store(KEY, (None, None, "not applicable", {}))
        assert store.load(KEY) == (None, None, "not applicable", {})

    @pytest.mark.parametrize("garbage", [b"", b"\x80", b"not a pickle at all"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        store = DiskStore(tmp_path)
        store.store(KEY, _cell())
        (path,) = tmp_path.glob("result-*.cell")
        path.write_bytes(garbage)
        assert store.load(KEY) is None
        stats = store.stats()
        assert (stats.misses, stats.corrupt) == (1, 1)

    @pytest.mark.parametrize(
        "value",
        [
            ("perm", None, None, {}),  # wrong-typed 4-tuple
            (None, None, None, []),
            (np.arange(4), {"jsum": 1}, None, {}),
            (None, None, 7, {}),
            [None, None, None, {}],  # a list, not a tuple
            (None, None, None),
            None,
            {"x": 1},
        ],
    )
    def test_wrong_shape_is_a_corrupt_miss(self, tmp_path, value):
        """A value that is not a cell is refused, and its pickle filed
        under the cell's name is a counted miss, never unpickled."""
        store = DiskStore(tmp_path)
        assert store.store(KEY, value) is False
        assert list(tmp_path.iterdir()) == []
        (tmp_path / f"result-{KEY}.cell").write_bytes(pickle.dumps(value))
        assert store.load(KEY) is None
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
        assert stats.stores == 0

    def test_truncated_cell_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.store(KEY, _cell(size=64))
        (path,) = tmp_path.glob("result-*.cell")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(KEY) is None
        assert store.corrupt == 1

    def test_misfiled_cell_is_a_corrupt_miss(self, tmp_path):
        """A well-formed cell copied under another key's file name is a
        counted miss: each cell carries its own key."""
        store = DiskStore(tmp_path)
        store.store(KEY, _cell(3))
        (path,) = tmp_path.iterdir()
        misfiled = path.with_name(path.name.replace(KEY, OTHER))
        misfiled.write_bytes(path.read_bytes())
        assert store.load(OTHER) is None
        assert store.load(KEY)[1].jsum == 3
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (1, 1, 1)

    def test_planted_pickle_runs_no_code(self, tmp_path):
        """Whoever can write the directory cannot run code in a reader:
        a pickle under the cell's name, or under the old ``.pkl`` name,
        is never unpickled."""
        payload = pickle.dumps(_Exploit())
        for suffix in (".cell", ".pkl"):
            (tmp_path / f"result-{KEY}{suffix}").write_bytes(payload)
        assert DiskStore(tmp_path).load(KEY) is None
        assert _EXPLOITED == []

    def test_legacy_pickled_cells_are_foreign_files(self, tmp_path):
        """``result-*.pkl`` cells of older releases are never read,
        cleared, pruned or counted: there is no migration."""
        from repro.engine.diskcache import prune

        legacy = tmp_path / f"result-{KEY}.pkl"
        legacy.write_bytes(pickle.dumps(_cell(1)))
        store = DiskStore(tmp_path)
        assert store.load(KEY) is None
        assert store.clear() == 0
        assert prune(tmp_path, 0, ttl=1) == {"result": 0}
        stats = store.stats()
        assert (stats.entries, stats.total_bytes) == (0, 0)
        assert (stats.misses, stats.corrupt) == (1, 0)
        assert legacy.exists()

    @pytest.mark.parametrize(
        "cell",
        [
            (np.array([object()]), None, None, {}),
            (np.arange(4).reshape(2, 2), None, None, {}),
            (np.arange(4).view(np.recarray), None, None, {}),
            (np.array(["a", "b"]), None, None, {}),
            (None, _cost(jsum=np.int64(1)), None, {}),
            (None, _cost(jmax=True), None, {}),
            (None, _cost(total_edges=2.0), None, {}),
            (None, _cost(bottleneck_node=1 << 63), None, {}),
            (None, _cost(per_node=[0, 1]), None, {}),
            (None, None, b"bytes", {}),
            (None, None, "lone \udc80 surrogate", {}),
            (None, None, None, {"m": np.float64(1.0)}),
            (None, None, None, {"m": [1.0]}),
            (None, None, None, {"m": {"nested": 1}}),
            (None, None, None, {1: 1.0}),
        ],
        ids=[
            "object-perm", "2d-perm", "perm-subclass", "string-perm",
            "numpy-jsum", "bool-jmax", "float-total-edges",
            "bottleneck-past-int64", "list-per-node", "bytes-error",
            "surrogate-error", "numpy-metric", "list-metric",
            "nested-metric", "int-metric-name",
        ],
    )
    def test_unstorable_cells_are_refused(self, tmp_path, cell):
        """A cell the layout cannot carry exactly is never written, so
        it is recomputed rather than served altered."""
        store = DiskStore(tmp_path)
        assert store.store(KEY, cell) is False
        assert list(tmp_path.iterdir()) == []
        assert store.load(KEY) is None
        stats = store.stats()
        assert (stats.stores, stats.corrupt) == (0, 0)

    @pytest.mark.parametrize("key", ["", "a" * 63, "g" * 64, "a" * 62 + " a"])
    def test_keys_that_are_not_digests_are_refused(self, tmp_path, key):
        store = DiskStore(tmp_path)
        assert store.store(key, _cell()) is False
        assert list(tmp_path.iterdir()) == []

    def test_clear_removes_exactly_its_own_files(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(3):
            store.store(stable_digest(str(i)), _cell(i))
        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("keep me")
        decoy = tmp_path / "result-decoy.json"  # wrong suffix
        decoy.write_text("{}")
        # older releases' tiers: the engine's perm cells, the edge
        # arrays, and pickled result cells
        legacy = [
            tmp_path / f"perm-{KEY}.pkl",
            tmp_path / f"edges-{KEY}.npy",
            tmp_path / f"result-{KEY}.pkl",
        ]
        for path in legacy:
            path.write_bytes(b"legacy")

        assert store.clear() == 3
        assert store.stats().entries == 0
        assert unrelated.read_text() == "keep me"
        assert decoy.exists()
        assert all(path.exists() for path in legacy)

    def test_unwritable_directory_degrades_to_noop(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should be")
        store = DiskStore(target)
        assert store.store(KEY, _cell()) is False
        assert store.load(KEY) is None
        assert store.stats().stores == 0


#: Per-node dtypes other than the int64 of perms.
_NUMERIC_DTYPES = [
    np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64, np.complex64, np.complex128, np.bool_,
]
_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
_METRIC_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(1 << 200), 1 << 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
    st.sampled_from(["é", "漢字", "\U0001f600", "\x00"]),
)
_METRICS = st.dictionaries(st.text(), _METRIC_VALUES, max_size=6)
_PERMS = hnp.arrays(np.int64, st.integers(0, 40))
_PER_NODE = st.sampled_from(_NUMERIC_DTYPES).flatmap(
    lambda dtype: hnp.arrays(dtype, st.integers(0, 12))
)
_COSTS = st.builds(
    MappingCost, jsum=_INT64, jmax=_INT64, total_edges=_INT64,
    per_node=_PER_NODE, bottleneck_node=_INT64,
)
_CELLS = st.one_of(
    st.tuples(
        st.none() | _PERMS, st.none() | _COSTS, st.none() | st.text(), _METRICS
    ),
    # a mapper's rejection: the error alone
    st.tuples(st.none(), st.none(), st.text(), st.just({})),
)


def _same_array(got, want) -> bool:
    return (
        type(got) is np.ndarray
        and got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def _same_scalar(got, want) -> bool:
    """Equal values of one Python type (NaN equals NaN, -0.0 is not 0.0)."""
    return type(got) is type(want) and repr(got) == repr(want)


class TestCellLayout:
    """Properties of the cell file layout: an exact round trip, and a
    fuzzer under which ``load`` only ever misses."""

    @settings(max_examples=150, deadline=None)
    @given(cell=_CELLS)
    def test_round_trip_keeps_values_dtypes_and_types(self, cell):
        with tempfile.TemporaryDirectory() as directory:
            store = DiskStore(directory)
            assert store.store(KEY, cell) is True
            got = store.load(KEY)
        assert type(got) is tuple and len(got) == 4
        perm, cost, error, metrics = cell
        if perm is None:
            assert got[0] is None
        else:
            assert _same_array(got[0], perm)
        if cost is None:
            assert got[1] is None
        else:
            assert type(got[1]) is MappingCost
            for field in ("jsum", "jmax", "total_edges", "bottleneck_node"):
                assert _same_scalar(getattr(got[1], field), getattr(cost, field))
            assert _same_array(got[1].per_node, cost.per_node)
        assert _same_scalar(got[2], error)
        assert type(got[3]) is dict
        assert list(got[3]) == list(metrics)
        assert all(_same_scalar(got[3][name], metrics[name]) for name in metrics)

    @settings(max_examples=300, deadline=None)
    @given(
        cell=_CELLS,
        mangle=st.sampled_from(
            ["bytes", "truncate", "flip", "append", "misfile"]
        ),
        data=st.data(),
    )
    def test_mangled_entry_is_a_counted_miss(self, cell, mangle, data):
        with tempfile.TemporaryDirectory() as directory:
            store = DiskStore(directory)
            assert store.store(KEY, cell) is True
            path = Path(directory, f"result-{KEY}.cell")
            valid = path.read_bytes()
            key = KEY
            if mangle == "bytes":
                content = data.draw(st.binary(max_size=400))
            elif mangle == "truncate":
                content = valid[: data.draw(st.integers(0, len(valid) - 1))]
            elif mangle == "flip":
                at = data.draw(st.integers(0, len(valid) - 1))
                bit = data.draw(st.integers(1, 255))
                content = valid[:at] + bytes([valid[at] ^ bit]) + valid[at + 1:]
            elif mangle == "append":
                content = valid + data.draw(st.binary(min_size=1, max_size=8))
            else:  # a valid cell copied under another key's file name
                content, key = valid, OTHER
            Path(directory, f"result-{key}.cell").write_bytes(content)
            assert store.load(key) is None
            stats = store.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)


class _FullDisk:
    """``os`` as :mod:`repro.engine.diskcache` sees it, on a disk that
    fills up halfway through the first write of a publish."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def write(fd, data):
        os.write(fd, bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStoreFaults:
    """A full disk and an unreadable entry each have one outcome."""

    def test_full_disk_publishes_nothing(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        monkeypatch.setattr(diskcache, "os", _FullDisk())
        assert store.store(KEY, _cell(size=64)) is False
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.iterdir()) == []
        assert store.stats().stores == 0
        assert store.load(KEY) is None

    def test_permission_denied_entry_is_a_corrupt_miss(
        self, tmp_path, monkeypatch
    ):
        """An entry that exists but cannot be opened is a miss counted as
        ``corrupt``.  Raised by patching: as root, ``chmod`` denies no
        read."""
        store = DiskStore(tmp_path)
        store.store(KEY, _cell())

        class Denied:
            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def open(path, flags, *args):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(diskcache, "os", Denied())
        assert store.load(KEY) is None
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    def test_fifo_under_a_cell_name_does_not_block(self, tmp_path):
        """A FIFO planted under a cell's name reads as a corrupt miss;
        opening it must not wait for a writer."""
        os.mkfifo(tmp_path / f"result-{KEY}.cell")
        store = DiskStore(tmp_path)
        assert store.load(KEY) is None
        assert store.corrupt == 1

    def test_engine_on_a_full_disk_computes_every_cell(self, tmp_path, monkeypatch):
        grid, stencil, alloc = _instance()
        requests = [
            MappingRequest(grid, stencil, alloc, name)
            for name in ("blocked", "hyperplane")
        ]
        reference = EvaluationEngine(max_workers=1).evaluate_batch(requests)
        monkeypatch.setattr(diskcache, "os", _FullDisk())
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            results = engine.evaluate_batch(requests)
            stats = engine.disk_store_stats()["result"]
        assert [r.perm.tobytes() for r in results] == [
            r.perm.tobytes() for r in reference
        ]
        assert [r.jsum for r in results] == [r.jsum for r in reference]
        assert (stats.misses, stats.stores) == (2, 0)
        assert list(tmp_path.iterdir()) == []


class TestCounterConsistency:
    """Satellite: ``_hits``/``_misses``/``_stores`` are bumped from
    concurrent engine worker threads; unguarded ``+= 1`` loses updates."""

    THREADS = 8
    OPS = 60

    def test_disk_store_counters_survive_a_threaded_hammer(self, tmp_path):
        store = DiskStore(tmp_path)
        hot = stable_digest("hot")
        store.store(hot, _cell())
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(self.OPS):
                store.load(hot)  # hit
                store.load(stable_digest(f"absent-{worker}-{i}"))  # miss
                store.store(stable_digest(f"w{worker}-{i}"), _cell(i))

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = store.stats()
        total = self.THREADS * self.OPS
        assert stats.hits == total
        assert stats.misses == total
        assert stats.stores == total + 1
        assert stats.hits + stats.misses == 2 * total


def _process_writer(args) -> bool:
    directory, key, worker = args
    store = DiskStore(directory)
    payload = _cell(worker, size=4096)
    ok = True
    for _ in range(20):
        ok &= store.store(key, payload)
        value = store.load(key)
        # Readers must only ever observe a complete published entry:
        # a homogeneous array from *some* writer, never torn bytes.
        if value is None or len(set(value[0].tolist())) != 1:
            return False
    return ok


class TestConcurrentWriters:
    def test_multi_process_writers_publish_only_complete_entries(self, tmp_path):
        key = stable_digest("contested")
        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(
                pool.map(
                    _process_writer,
                    [(str(tmp_path), key, w) for w in range(4)],
                )
            )
        assert all(outcomes)
        # and the survivor is a valid entry
        value = DiskStore(tmp_path).load(key)
        assert value is not None and len(value) == 4

    def test_tmp_files_never_linger_after_publish(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(10):
            store.store(stable_digest(str(i)), _cell(i))
        assert list(tmp_path.glob("*.tmp")) == []


class TestStableKeys:
    def test_instance_payload_is_structural(self):
        grid, stencil, alloc = _instance()
        again = (
            CartesianGrid([4, 12]),
            nearest_neighbor(2),
            NodeAllocation.homogeneous(4, 12),
        )
        assert instance_payload(grid, stencil, alloc) == instance_payload(*again)

    def test_mapper_payload_rejects_instances(self):
        from repro.engine.registry import resolve_mapper

        assert mapper_payload("blocked") is not None
        assert mapper_payload(resolve_mapper("blocked")) is None

    def test_metric_payload_rejects_exotic_params(self):
        from repro.engine.metrics import MetricSpec
        from repro.workloads import halo_exchange_volume

        grid, stencil, _ = _instance()
        spec = weighted_bytes_metric(
            halo_exchange_volume(grid, stencil, (8, 8), 4)
        )
        assert metric_payload(spec) is not None
        exotic = MetricSpec("custom", (("fn", object()),))
        assert metric_payload(exotic) is None

    def test_request_payload_stability_and_uncacheables(self):
        from repro.engine.registry import resolve_mapper

        grid, stencil, alloc = _instance()
        request = MappingRequest(grid, stencil, alloc, "blocked")
        twin = MappingRequest(
            CartesianGrid([4, 12]),
            nearest_neighbor(2),
            NodeAllocation.homogeneous(4, 12),
            "blocked",
        )
        assert request_payload(request) == request_payload(twin)
        other = MappingRequest(grid, stencil, alloc, "hyperplane")
        assert request_payload(request) != request_payload(other)
        # explicit permutations key by content digest
        perm = np.arange(grid.size, dtype=np.int64)
        with_perm = MappingRequest(grid, stencil, alloc, "blocked", perm=perm)
        same_perm = MappingRequest(
            grid, stencil, alloc, "blocked", perm=perm.copy()
        )
        assert request_payload(with_perm) == request_payload(same_perm)
        assert request_payload(with_perm) != request_payload(request)
        # uncacheables
        instance_mapper = MappingRequest(
            grid, stencil, alloc, resolve_mapper("blocked")
        )
        assert request_payload(instance_mapper) is None
        assert request_payload(("opaque", 0)) is None
        assert request_payload("not a request") is None


    def test_memoized_keys_match_cell_key(self):
        """One memo over a decoded submission gives every item exactly
        its :func:`cell_key`: shared instance objects, Cartesian and
        graph workloads, explicit perms, metrics, a mapper instance and
        an opaque item."""
        from repro import CartesianWorkload, GraphWorkload
        from repro.engine.backends import shard_payloads
        from repro.engine.cluster.protocol import (
            SUBMIT,
            decode_payload,
            encode_message,
        )
        from repro.engine.registry import resolve_mapper
        from repro.sweep import InstanceSpec, SweepSpec

        grid, stencil, alloc = _instance()
        metric = weighted_bytes_metric({offset: 8.0 for offset in stencil.offsets})
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(n, 12) for n in (4, 6, 8)],
            stencils=["nearest_neighbor", "component"],
            mappers=["blocked", "hyperplane", ("kd", resolve_mapper("kd_tree"))],
            metrics=[metric],
        )
        ring = GraphWorkload(8, [[i, (i + 1) % 8] for i in range(8)])
        requests = [
            *spec.compile(),
            MappingRequest(
                workload=CartesianWorkload(grid, stencil), alloc=alloc,
                mapper="nodecart",
            ),
            MappingRequest(workload=ring, alloc=NodeAllocation.homogeneous(2, 4)),
            MappingRequest(workload=ring, alloc=NodeAllocation.homogeneous(4, 2)),
            MappingRequest(grid, stencil, alloc, perm=np.arange(grid.size)[::-1]),
        ]
        frame = encode_message((SUBMIT, shard_payloads(requests, 4), {}))
        _, payloads, _ = decode_payload(memoryview(frame)[4:])
        items = [item for shard in payloads for item in shard] + [("opaque", 0)]
        memo: dict = {}
        memoized = [cell_key(item[1], memo) for item in items]
        assert memoized == [cell_key(item[1]) for item in items]
        # 3 x 2 instances x 2 named mappers, then the four lone requests
        assert len(set(memoized) - {None}) == 16
        assert [key is None for key in memoized].count(True) == 6 + 1
        # one entry per distinct set of instance objects: each built once
        assert len(memo) == 6 + 4


class TestEngineDiskTiers:
    """The engine's one persistent tier: whole result cells."""

    def _requests(self):
        grid, stencil, alloc = _instance()
        metric = weighted_bytes_metric(
            __import__("repro.workloads", fromlist=["halo_exchange_volume"])
            .halo_exchange_volume(grid, stencil, (8, 8), 4)
        )
        return [
            MappingRequest(
                grid, stencil, alloc, name, metrics=(metric,)
            )
            for name in ("blocked", "hyperplane", "nodecart")
        ]

    @staticmethod
    def _signature(result):
        return (
            None if result.cost is None else result.cost.jsum,
            None if result.cost is None else result.cost.jmax,
            None if result.perm is None else result.perm.tobytes(),
            None if result.cost is None else result.cost.per_node.tobytes(),
            result.error,
            tuple(sorted(result.metrics.items())),
        )

    @staticmethod
    def _loads(engine) -> int:
        """``DiskStore.load`` calls so far: each is one hit or one miss."""
        stats = engine.disk_store_stats()["result"]
        return stats.hits + stats.misses

    def test_fresh_engine_serves_perm_cost_metric_from_disk(self, tmp_path):
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as cold:
            reference = [
                self._signature(r) for r in cold.evaluate_batch(self._requests())
            ]
            assert cold.disk_store_stats()["result"].stores == 3
        kinds = {path.name.split("-")[0] for path in tmp_path.iterdir()}
        assert kinds == {"result"}  # the one persistent tier

        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as warm:
            results = warm.evaluate_batch(self._requests())
            stats = warm.disk_store_stats()["result"]
            # hits seed the permutation and cost LRUs
            assert warm.cache_stats()["permutations"].size == 3
            assert warm.cache_stats()["costs"].size == 3
        assert [self._signature(r) for r in results] == reference
        assert (stats.hits, stats.misses, stats.stores) == (3, 0, 0)
        for result in results:
            assert not result.perm.flags.writeable
            assert not result.cost.per_node.flags.writeable

    def test_mapper_rejections_are_memoized_on_disk(self, tmp_path, monkeypatch):
        grid = CartesianGrid([5, 7])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation([5, 10, 20])  # heterogeneous: nodecart rejects
        request = MappingRequest(grid, stencil, alloc, "nodecart")
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            (cold,) = engine.evaluate_batch([request])
        assert cold.perm is None and cold.error

        def no_mapper(name):
            raise AssertionError("the stored rejection must be reused")

        monkeypatch.setattr("repro.engine.engine.resolve_mapper", no_mapper)
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            (warm,) = engine.evaluate_batch([request])
            # the hit seeded the permutation LRU with the rejection
            again = engine.permutation(grid, stencil, alloc, "nodecart")
            stats = engine.disk_store_stats()["result"]
        assert (warm.perm, warm.cost, warm.error) == (None, None, cold.error)
        assert again == (None, cold.error)
        assert stats.hits == 1

    def test_disabled_disk_layer_keeps_store_stats_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with EvaluationEngine(max_workers=1, disk_cache_dir=None) as engine:
            engine.evaluate_batch(self._requests()[:1])
            assert engine.disk_store_stats() == {}

    def test_corrupt_store_entry_falls_back_to_compute(self, tmp_path):
        requests = self._requests()
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as cold:
            reference = [
                self._signature(r) for r in cold.evaluate_batch(requests)
            ]
        for path in tmp_path.glob("result-*.cell"):
            path.write_bytes(b"\x00garbage")
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as warm:
            warmed = [
                self._signature(r) for r in warm.evaluate_batch(requests)
            ]
            stats = warm.disk_store_stats()["result"]
        assert warmed == reference
        assert (stats.misses, stats.corrupt) == (3, 3)
        assert stats.stores == 3  # recomputed + republished

    def test_repeat_batch_on_one_engine_never_touches_disk(self, tmp_path):
        requests = self._requests()
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            engine.evaluate_batch(requests)
            assert self._loads(engine) == 3  # cold: one miss per cell
            assert engine.disk_store_stats()["result"].stores == 3
            engine.evaluate_batch(self._requests())
            assert self._loads(engine) == 3
            assert engine.disk_store_stats()["result"].stores == 3

    def test_warm_directory_costs_one_load_per_cell(self, tmp_path):
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as cold:
            reference = [
                self._signature(r) for r in cold.evaluate_batch(self._requests())
            ]
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as warm:
            for _ in range(2):
                results = warm.evaluate_batch(self._requests())
                assert [self._signature(r) for r in results] == reference
                for result in results:
                    assert not result.perm.flags.writeable
                    assert not result.cost.per_node.flags.writeable
            assert self._loads(warm) == len(reference)
            assert warm.disk_store_stats()["result"].stores == 0

    def test_explicit_perm_requests_never_touch_disk(self, tmp_path):
        grid, stencil, alloc = _instance()
        perm = np.arange(grid.size, dtype=np.int64)
        request = MappingRequest(grid, stencil, alloc, "blocked", perm=perm)
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            (result,) = engine.evaluate_batch([request])
            assert result.ok
            assert self._loads(engine) == 0
        assert not list(tmp_path.iterdir())

    def test_cells_match_the_coordinator_key(self, tmp_path):
        """The engine files each cell under the key the service daemon
        looks up, with the value worker rows carry after their index."""
        requests = self._requests()
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            results = engine.evaluate_batch(requests)
        store = DiskStore(tmp_path)
        for request, result in zip(requests, results):
            perm, cost, error, metrics = store.load(cell_key(request))
            assert perm.tobytes() == result.perm.tobytes()
            assert (cost.jsum, error, metrics) == (
                result.cost.jsum, result.error, result.metrics
            )


class TestSweepFingerprint:
    def _spec(self, mapper="blocked"):
        from repro.sweep import InstanceSpec, SweepSpec

        return SweepSpec(
            instances=[
                InstanceSpec.from_nodes(4, 12),
                InstanceSpec.from_nodes(6, 8),
            ],
            stencils=["nearest_neighbor"],
            mappers=[mapper, "hyperplane"],
        )

    def test_fingerprint_is_stable_across_specs(self):
        assert self._spec().fingerprint() == self._spec().fingerprint()

    def test_fingerprint_distinguishes_content(self):
        assert self._spec().fingerprint() != self._spec("nodecart").fingerprint()

    def test_fingerprint_covers_uncacheable_cells(self):
        from repro.engine.registry import resolve_mapper

        spec = self._spec(resolve_mapper("blocked"))
        digest = spec.fingerprint()
        assert isinstance(digest, str) and len(digest) == 64


class TestPrune:
    """LRU eviction of the result cells in one directory."""

    #: Result cells in the directory.
    ENTRIES = 5

    @staticmethod
    def _fill(tmp_path, ages):
        """Five result cells with mtimes spread by *ages* seconds ago,
        in key order; returns their keys."""
        import os
        import time

        store = DiskStore(tmp_path)
        keys = [KEY[:-1] + str(i) for i in range(TestPrune.ENTRIES)]
        now = time.time()
        for i, (key, age) in enumerate(zip(keys, ages)):
            store.store(key, _cell(i, size=50))
            path = tmp_path / f"result-{key}.cell"
            os.utime(path, (now - age, now - age))
        return keys

    def test_prune_to_zero_clears_every_kind(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * self.ENTRIES)
        removed = prune(tmp_path, 0)
        assert removed == {"result": self.ENTRIES}
        assert not list(tmp_path.iterdir())

    def test_prune_respects_budget_and_evicts_oldest_first(self, tmp_path):
        from repro.engine.diskcache import prune

        # ages descending with the first cell oldest
        self._fill(tmp_path, [500, 400, 300, 200, 100])
        sizes = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
        total = sum(sizes.values())
        oldest = max(tmp_path.iterdir(), key=lambda p: 500 - p.stat().st_mtime)
        budget = total - 1  # one eviction suffices
        prune(tmp_path, budget)
        left = {p.name for p in tmp_path.iterdir()}
        assert oldest.name not in left
        assert len(left) == self.ENTRIES - 1
        assert sum(p.stat().st_size for p in tmp_path.iterdir()) <= budget

    def test_prune_under_budget_is_a_no_op(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * self.ENTRIES)
        before = sorted(p.name for p in tmp_path.iterdir())
        removed = prune(tmp_path, 1 << 30)
        assert sum(removed.values()) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_load_refreshes_recency(self, tmp_path):
        """A hit bumps mtime, so the TTL no longer expires the entry."""
        from repro.engine.diskcache import prune

        keys = self._fill(tmp_path, [5000, 100, 100, 100, 100])
        # the first cell is past the TTL; a load makes it recent again
        assert DiskStore(tmp_path).load(keys[0]) is not None
        assert prune(tmp_path, ttl=3600) == {"result": 0}
        assert len(list(tmp_path.iterdir())) == self.ENTRIES

    def test_store_load_refreshes_recency(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [100, 500, 100, 100, 100])
        store = DiskStore(tmp_path)
        oldest = KEY[:-1] + "1"
        assert store.load(oldest) is not None  # bumps mtime
        total = sum(p.stat().st_size for p in tmp_path.iterdir())
        prune(tmp_path, total - 1)
        assert store.load(oldest) is not None  # survived

    def test_foreign_files_never_touched(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * self.ENTRIES)
        foreign = tmp_path / "notes.txt"
        foreign.write_text("keep me")
        # older releases' tiers
        legacy = [tmp_path / f"edges-{KEY}.npy", tmp_path / f"result-{KEY}.pkl"]
        for path in legacy:
            path.write_bytes(b"legacy")
        prune(tmp_path, 0, ttl=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name for path in legacy] + ["notes.txt"]
        )

    def test_missing_directory_prunes_nothing(self, tmp_path):
        from repro.engine.diskcache import prune

        removed = prune(tmp_path / "never-created", 0)
        assert sum(removed.values()) == 0

    def test_negative_budget_rejected(self, tmp_path):
        from repro.engine.diskcache import prune

        with pytest.raises(ValueError, match="max_bytes"):
            prune(tmp_path, -1)

    def test_ttl_evicts_only_expired_entries(self, tmp_path):
        from repro.engine.diskcache import prune

        # two entries well past the TTL, the rest recent
        self._fill(tmp_path, [5000, 4000, 10, 10, 10])
        removed = prune(tmp_path, ttl=3600)
        assert sum(removed.values()) == 2
        assert len(list(tmp_path.iterdir())) == self.ENTRIES - 2

    def test_ttl_alone_ignores_size(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * self.ENTRIES)
        removed = prune(tmp_path, ttl=3600)
        assert sum(removed.values()) == 0
        assert len(list(tmp_path.iterdir())) == self.ENTRIES

    def test_ttl_combines_with_size_budget(self, tmp_path):
        import time

        from repro.engine.diskcache import prune

        # one expired entry; the budget then forces one more eviction
        # among the survivors (oldest first)
        self._fill(tmp_path, [5000, 400, 300, 200, 100])
        survivors_total = sum(
            p.stat().st_size
            for p in tmp_path.iterdir()
            if p.stat().st_mtime > time.time() - 3600
        )
        removed = prune(tmp_path, survivors_total - 1, ttl=3600)
        assert sum(removed.values()) == 2
        assert (
            sum(p.stat().st_size for p in tmp_path.iterdir())
            <= survivors_total - 1
        )

    def test_no_policy_rejected(self, tmp_path):
        from repro.engine.diskcache import prune

        with pytest.raises(ValueError, match="max_bytes, ttl"):
            prune(tmp_path)

    def test_non_positive_ttl_rejected(self, tmp_path):
        from repro.engine.diskcache import prune

        with pytest.raises(ValueError, match="ttl"):
            prune(tmp_path, ttl=0)
