"""The declarative sweep API: SweepSpec compilation, execution, ResultSet."""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest

import repro
from repro import (
    CellOverride,
    InstanceSpec,
    MappingRequest,
    MetricSpec,
    NodeAllocation,
    ResultSet,
    Stencil,
    SweepSpec,
    run,
    run_stream,
)
from repro.engine import EvaluationEngine, ProcessBackend, weighted_bytes_metric
from repro.engine.backends import shard_payloads, strip_request_tag
from repro.engine.metrics import as_metric_spec, register_metric
from repro.engine.request import group_by_instance
from repro.exceptions import ReproError
from repro.experiments.figure8 import figure8_sweep
from repro.experiments.instances import Instance, instance_set
from repro.metrics.cost import weighted_cut_bytes
from repro.sweep import WORKLOAD_AXIS, SweepCell, SweepRow, _json_safe
from repro.workloads import (
    CartesianWorkload,
    StencilProgramWorkload,
    as_workload,
    halo_exchange_volume,
    random_sparse_workload,
)


def small_spec(**kwargs) -> SweepSpec:
    return SweepSpec(
        instances=[InstanceSpec.from_nodes(n, 8) for n in (4, 6)],
        stencils=["nearest_neighbor"],
        mappers=["blocked", "hyperplane", "stencil_strips"],
        **kwargs,
    )


class TestInstanceSpec:
    def test_from_nodes_labels_and_params(self):
        spec = InstanceSpec.from_nodes(4, 8, 2)
        assert spec.label == "N4_n8_2d"
        assert dict(spec.params) == {
            "num_nodes": 4,
            "processes_per_node": 8,
            "ndims": 2,
        }
        assert spec.grid.size == 32
        assert spec.alloc.num_nodes == 4

    def test_coerce_instance_object(self):
        inst = Instance(10, 10, 2)
        spec = InstanceSpec.coerce(inst)
        assert spec.label == inst.label()
        assert spec.grid is inst.grid
        assert spec.alloc is inst.allocation

    def test_coerce_pair_and_int(self):
        by_count = InstanceSpec.coerce(4)
        assert dict(by_count.params)["processes_per_node"] == 48
        grid = repro.CartesianGrid([6, 4])
        alloc = NodeAllocation.homogeneous(4, 6)
        pair = InstanceSpec.coerce((grid, alloc))
        assert pair.grid is grid and pair.alloc is alloc

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            InstanceSpec.coerce(object())


class TestSweepSpec:
    def test_cell_order_is_deterministic(self):
        spec = small_spec()
        cells = spec.cells()
        assert [c.instance.label for c in cells[:3]] == ["N4_n8_2d"] * 3
        assert [c.mapper for c in cells[:3]] == [
            "blocked",
            "hyperplane",
            "stencil_strips",
        ]
        assert cells is spec.cells()  # compiled once
        assert len(spec) == 6

    def test_compile_skips_error_cells(self):
        # component stencils need >= 2 dimensions: a 1-d instance cannot
        # compile those cells but must not kill the others
        one_d = InstanceSpec.from_nodes(4, 4, 1)
        spec = SweepSpec(
            instances=[one_d, InstanceSpec.from_nodes(4, 4, 2)],
            stencils=["component"],
            mappers=["blocked"],
        )
        cells = spec.cells()
        assert cells[0].request is None and cells[0].error
        assert cells[1].request is not None
        assert len(spec.compile()) == 1

    def test_mapper_axis_accepts_instances_and_mappings(self):
        spec = SweepSpec(
            instances=[4],
            stencils=["nearest_neighbor"],
            mappers={"base": "blocked", "tuned": repro.HyperplaneMapper()},
        )
        assert [name for name, _ in spec.mappers] == ["base", "tuned"]
        bare = SweepSpec(
            instances=[4],
            stencils=["nearest_neighbor"],
            mappers=[repro.HyperplaneMapper()],
        )
        assert bare.mappers[0][0] == "hyperplane"

    def test_duplicate_axis_labels_rejected(self):
        nn = repro.nearest_neighbor(2)
        hops = repro.nearest_neighbor_with_hops(2)  # also auto-named by size?
        with pytest.raises(ValueError, match="duplicate stencil"):
            SweepSpec(
                instances=[4],
                stencils=[("s", nn), ("s", hops)],
                mappers=["blocked"],
            )
        with pytest.raises(ValueError, match="duplicate mapper"):
            SweepSpec(
                instances=[4],
                stencils=["nearest_neighbor"],
                mappers=[("m", "blocked"), ("m", "hyperplane")],
            )
        with pytest.raises(ValueError, match="duplicate instance"):
            SweepSpec(
                instances=[4, 4],
                stencils=["nearest_neighbor"],
                mappers=["blocked"],
            )

    def test_duplicate_allocation_labels_rejected(self):
        inst = InstanceSpec.from_nodes(4, 8)
        alloc = NodeAllocation.homogeneous(4, 8)
        with pytest.raises(ValueError, match="duplicate allocation"):
            SweepSpec(
                instances=[inst],
                stencils=["nearest_neighbor"],
                mappers=["blocked"],
                allocations=[alloc, alloc],  # both auto-labelled "nodes4"
            )

    def test_multiple_metric_failures_all_reported(self):
        def boom_a(ctx, perms, spec):
            raise RuntimeError("boom-a")

        def boom_b(ctx, perms, spec):
            raise RuntimeError("boom-b")

        register_metric("test_boom_a", boom_a, replace=True)
        register_metric("test_boom_b", boom_b, replace=True)
        spec = SweepSpec(
            instances=[4],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
            metrics=["test_boom_a", "test_boom_b"],
        )
        row = run(spec)[0]
        assert not row.ok
        assert "boom-a" in row.error and "boom-b" in row.error

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown stencil family"):
            SweepSpec(instances=[4], stencils=["moebius"], mappers=["blocked"])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(instances=[], stencils=["nearest_neighbor"])
        with pytest.raises(ValueError):
            SweepSpec(instances=[4], stencils=[])
        with pytest.raises(ValueError):
            SweepSpec(instances=[4], mappers=[])

    def test_allocations_axis_mismatch_is_error_cell(self):
        inst = InstanceSpec.from_nodes(4, 8)
        good = NodeAllocation.homogeneous(8, 4)  # 32 processes, matches
        bad = NodeAllocation.homogeneous(3, 5)  # 15 processes, mismatch
        spec = SweepSpec(
            instances=[inst],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
            allocations=[("regular", good), ("broken", bad)],
        )
        results = run(spec)
        assert len(results) == 2
        ok_row, bad_row = results.rows
        assert ok_row.ok and ok_row.tags["allocation"] == "regular"
        assert not bad_row.ok and "AllocationError" in bad_row.error

    def test_overrides_skip_metrics_and_tags(self):
        vol_spec = MetricSpec("weighted_cut_bytes")
        spec = small_spec(
            tags={"suite": "unit"},
            overrides=[
                CellOverride(mapper="stencil_strips", skip=True),
                CellOverride(
                    instance="N4_n8_2d", tags={"marked": True}
                ),
                CellOverride(mapper="hyperplane", metrics=[vol_spec]),
            ],
        )
        cells = spec.cells()
        skipped = [c for c in cells if c.mapper == "stencil_strips"]
        assert all(c.request is None and "skipped" in c.error for c in skipped)
        marked = [c for c in cells if c.instance.label == "N4_n8_2d"]
        assert all(c.tags == {"suite": "unit", "marked": True} for c in marked)
        hyper = [c for c in cells if c.mapper == "hyperplane"]
        assert all(c.metrics == (vol_spec,) for c in hyper)


class TestRun:
    def test_rows_in_cell_order_and_values_match_engine(self):
        spec = small_spec()
        results = run(spec)
        assert [(r.instance, r.mapper) for r in results] == [
            (c.instance.label, c.mapper) for c in spec.cells()
        ]
        # cross-check one cell against the one-off evaluation API
        row = results.filter(instance="N6_n8_2d", mapper="hyperplane")[0]
        grid = repro.CartesianGrid(repro.dims_create(48, 2))
        perm = repro.HyperplaneMapper().map_ranks(
            grid, repro.nearest_neighbor(2), NodeAllocation.homogeneous(6, 8)
        )
        cost = repro.evaluate_mapping(
            grid, repro.nearest_neighbor(2), perm, NodeAllocation.homogeneous(6, 8)
        )
        assert (row.jsum, row.jmax) == (cost.jsum, cost.jmax)

    def test_backend_spec_string_and_shared_engine(self):
        spec = small_spec()
        serial = run(spec, backend="serial")
        with EvaluationEngine() as engine:
            shared = run(spec, backend=engine)
            again = run(spec, backend=engine)  # warm-cache second pass
        assert serial.to_rows() == shared.to_rows() == again.to_rows()

    def test_backend_instances_match_serial(self):
        spec = small_spec()
        expected = run(spec).to_rows()
        with ProcessBackend(2) as backend:
            assert run(spec, backend=backend).to_rows() == expected

    def test_partial_failure_rows(self):
        # nodecart rejects non-factorisable node counts; the sweep keeps
        # going and carries the rejection as an error row
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(7, 7)],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "nodecart"],
        )
        results = run(spec)
        per_mapper = {row.mapper: row for row in results}
        assert per_mapper["blocked"].ok
        nodecart = per_mapper["nodecart"]
        assert nodecart.ok or nodecart.error is None  # may legitimately map
        assert len(results.failed()) + len(results.ok()) == len(results)

    def test_run_stream_yields_all_rows(self):
        spec = small_spec()
        streamed = sorted(
            ((r.instance, r.mapper, r.jsum) for r in run_stream(spec)),
        )
        batch = sorted((r.instance, r.mapper, r.jsum) for r in run(spec))
        assert streamed == batch

    def test_metric_through_sweep_matches_serial(self):
        inst = InstanceSpec.from_nodes(4, 8)
        stencil = repro.nearest_neighbor_with_hops(2)
        volumes = halo_exchange_volume(inst.grid, stencil, (8, 8), 4)
        spec = SweepSpec(
            instances=[inst],
            stencils=["nearest_neighbor_with_hops"],
            mappers=["blocked", "hyperplane"],
            metrics=[weighted_bytes_metric(volumes)],
        )
        for backend in (None, "process:2"):
            results = run(spec, backend=backend)
            for row in results:
                assert row.ok
                expected = weighted_cut_bytes(
                    inst.grid, stencil, row.result.perm, inst.alloc, volumes
                )
                got = (
                    row.metrics["weighted_cut_bytes"],
                    row.metrics["weighted_bottleneck_bytes"],
                )
                assert got == expected

    def test_custom_registered_metric(self):
        def cut_fraction(ctx, perms, spec):
            costs = repro.evaluate_mappings_batch(
                ctx.grid, ctx.stencil, perms, ctx.alloc, edges=ctx.edges
            )
            return [{"cut_fraction": c.cut_fraction} for c in costs]

        register_metric("test_cut_fraction", cut_fraction, replace=True)
        spec = SweepSpec(
            instances=[4],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
            metrics=["test_cut_fraction"],
        )
        row = run(spec)[0]
        assert row.ok and 0.0 <= row.metrics["cut_fraction"] <= 1.0

    def test_malformed_metric_rows_are_cell_error_not_crash(self):
        def malformed(ctx, perms, spec):
            return [(1.0, 2.0)] * perms.shape[0]  # tuples, not mappings

        register_metric("test_malformed", malformed, replace=True)
        spec = SweepSpec(
            instances=[4],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
            metrics=["test_malformed"],
        )
        row = run(spec)[0]  # must not raise
        assert not row.ok and "test_malformed" in row.error
        assert row.jsum is not None

    def test_value_error_stencil_factory_is_cell_error(self):
        def broken_factory(ndim):
            raise ValueError("no stencil for you")

        spec = SweepSpec(
            instances=[4],
            stencils=[("broken", broken_factory), "nearest_neighbor"],
            mappers=["blocked"],
        )
        results = run(spec)  # must not abort the healthy cell
        per_stencil = {row.stencil: row for row in results}
        assert not per_stencil["broken"].ok
        assert "no stencil for you" in per_stencil["broken"].error
        assert per_stencil["nearest_neighbor"].ok

    def test_cached_metric_survives_group_failure(self):
        calls = {"n": 0}

        def flaky(ctx, perms, spec):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("flaked")
            return [{"flaky": 1.0}] * perms.shape[0]

        register_metric("test_flaky", flaky, replace=True)
        spec_one = SweepSpec(
            instances=[4], stencils=["nearest_neighbor"],
            mappers=["blocked"], metrics=["test_flaky"],
        )
        spec_two = SweepSpec(
            instances=[4], stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane"], metrics=["test_flaky"],
        )
        with EvaluationEngine(max_workers=1) as engine:
            first = run(spec_one, backend=engine)
            assert first[0].ok and first[0].metrics == {"flaky": 1.0}
            second = run(spec_two, backend=engine)
        rows = {row.mapper: row for row in second}
        # blocked's value was cached in the first sweep: it must survive
        # the same spec failing for hyperplane's fresh permutation
        assert rows["blocked"].ok and rows["blocked"].metrics == {"flaky": 1.0}
        assert not rows["hyperplane"].ok and "flaked" in rows["hyperplane"].error

    def test_failing_metric_is_cell_error_not_crash(self):
        def broken(ctx, perms, spec):
            raise RuntimeError("boom")

        register_metric("test_broken", broken, replace=True)
        spec = SweepSpec(
            instances=[4],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
            metrics=["test_broken"],
        )
        row = run(spec)[0]
        assert not row.ok
        assert "boom" in row.error
        assert row.jsum is not None  # the cost still computed


def workload_spec(**kwargs) -> SweepSpec:
    """Three workload families on the workload axis, 16 processes."""
    alloc = NodeAllocation.homogeneous(4, 4)
    grid = repro.CartesianGrid([4, 4])
    nn = repro.nearest_neighbor(2)
    return SweepSpec(
        instances=[
            InstanceSpec.from_workload(
                CartesianWorkload(grid, nn), alloc, label="cartesian"
            ),
            InstanceSpec.from_workload(
                StencilProgramWorkload(grid, [("a", nn), ("b", nn)]),
                alloc,
                label="program",
            ),
            InstanceSpec.from_workload(
                as_workload(random_sparse_workload(16, 3, seed=4)),
                alloc,
                label="graph",
            ),
        ],
        stencils=[WORKLOAD_AXIS],
        mappers=["blocked", "graphmap"],
        **kwargs,
    )


class TestWorkloadAxis:
    def test_from_workload_labels_and_params(self):
        alloc = NodeAllocation.homogeneous(4, 4)
        w = CartesianWorkload(repro.CartesianGrid([4, 4]), repro.nearest_neighbor(2))
        spec = InstanceSpec.from_workload(w, alloc)
        assert spec.label == w.name
        assert dict(spec.params)["workload"] == w.name
        assert spec.workload is w and spec.grid == w.grid
        with pytest.raises(TypeError, match="as_workload"):
            InstanceSpec.from_workload(random_sparse_workload(16, 3, seed=1), alloc)

    def test_coerce_workload_pair(self):
        alloc = NodeAllocation.homogeneous(4, 4)
        w = as_workload(random_sparse_workload(16, 3, seed=1))
        spec = InstanceSpec.coerce((w, alloc))
        assert spec.workload is w and spec.grid is None

    def test_rows_and_structured_graph_split(self):
        results = run(workload_spec())
        assert len(results) == 6
        by = {(r.instance, r.mapper): r for r in results}
        # structured families evaluate everywhere; the irregular graph
        # needs graphmap and surfaces an actionable error elsewhere
        assert by[("cartesian", "blocked")].ok
        assert by[("program", "graphmap")].ok
        assert by[("graph", "graphmap")].ok
        graph_blocked = by[("graph", "blocked")]
        assert not graph_blocked.ok and "graphmap" in graph_blocked.error
        # stage multiplicity doubles the shared-exchange cost
        assert (
            by[("program", "blocked")].jsum
            == 2 * by[("cartesian", "blocked")].jsum
        )

    def test_byte_identical_across_backends(self):
        spec = workload_spec()
        serial = run(spec, backend="serial")
        with ProcessBackend(2) as backend:
            process = run(spec, backend=backend)
        assert serial.to_json(indent=None) == process.to_json(indent=None)
        default = run(spec)
        assert serial.to_json(indent=None) == default.to_json(indent=None)

    def test_workload_instance_on_stencil_axis_is_actionable_error(self):
        """Satellite: crossing a workload instance with a named stencil
        axis produces an error cell naming the offending labels."""
        alloc = NodeAllocation.homogeneous(4, 4)
        w = as_workload(random_sparse_workload(16, 3, seed=4))
        spec = SweepSpec(
            instances=[InstanceSpec.from_workload(w, alloc, label="mygraph")],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
        )
        (cell,) = spec.cells()
        assert cell.request is None
        assert "mygraph" in cell.error
        assert "nearest_neighbor" in cell.error
        assert WORKLOAD_AXIS in cell.error  # tells the user the fix

    def test_plain_instance_on_workload_axis_is_actionable_error(self):
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(4, 4)],
            stencils=[WORKLOAD_AXIS],
            mappers=["blocked"],
        )
        (cell,) = spec.cells()
        assert cell.request is None
        assert "N4_n4_2d" in cell.error
        assert "from_workload" in cell.error

    def test_fingerprint_stable_across_reconstruction(self):
        """Independently rebuilt equal workloads fingerprint alike: the
        service daemon's dedupe key survives process boundaries."""
        assert workload_spec().fingerprint() == workload_spec().fingerprint()
        alloc = NodeAllocation.homogeneous(4, 4)
        changed = SweepSpec(
            instances=[
                InstanceSpec.from_workload(
                    as_workload(random_sparse_workload(16, 3, seed=5)),
                    alloc,
                    label="graph",
                )
            ],
            stencils=[WORKLOAD_AXIS],
            mappers=["blocked", "graphmap"],
        )
        assert changed.fingerprint() != workload_spec().fingerprint()

    def test_topology_metric_through_workload_sweep(self):
        topo = repro.Torus3DTopology((2, 2, 1))
        results = run(workload_spec(metrics=[repro.topology_cut_metric(topo)]))
        for row in results.ok():
            assert row.metrics["hop_cut"] >= row.metrics["hop_max"] >= 0.0
        # the Cartesian workload's hop costs match the serial evaluation
        from repro.metrics.cost import hop_weighted_cut

        grid = repro.CartesianGrid([4, 4])
        nn = repro.nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(4, 4)
        edges = repro.communication_edges(grid, nn)
        weights = np.array(
            [
                [float(topo.hop_distance(a, b)) for b in range(4)]
                for a in range(4)
            ]
        )
        row = results.filter(instance="cartesian", mapper="blocked")[0]
        total, bottleneck = hop_weighted_cut(
            edges, row.result.perm, alloc, weights
        )
        assert (row.metrics["hop_cut"], row.metrics["hop_max"]) == (
            total,
            bottleneck,
        )


class TestResultSet:
    def test_filter_group_pivot_column(self):
        results = run(small_spec(tags={"suite": "unit"}))
        assert len(results.filter(mapper="blocked")) == 2
        assert len(results.filter(suite="unit")) == len(results)
        assert len(results.filter(lambda r: r.jsum > 0)) == len(results)
        groups = results.group_by("instance")
        assert list(groups) == ["N4_n8_2d", "N6_n8_2d"]
        assert all(len(g) == 3 for g in groups.values())
        pair_groups = results.group_by("instance", "mapper")
        assert len(pair_groups) == 6
        pivot = results.pivot(values="jsum")
        assert set(pivot) == {"N4_n8_2d", "N6_n8_2d"}
        assert set(pivot["N4_n8_2d"]) == {"blocked", "hyperplane", "stencil_strips"}
        assert results.column("num_nodes") == [4, 4, 4, 6, 6, 6]

    def test_rows_to_json_and_back(self):
        results = run(small_spec(tags={"suite": "unit"}))
        round_tripped = ResultSet.from_rows(results.to_rows())
        assert round_tripped.to_rows() == results.to_rows()
        via_json = ResultSet.from_json(results.to_json(indent=None))
        assert via_json.to_rows() == results.to_rows()
        assert via_json[0].result is None  # live payloads do not survive

    def test_json_file_output(self, tmp_path):
        results = run(small_spec())
        path = tmp_path / "out.json"
        results.to_json(path)
        assert ResultSet.from_json(path.read_text()).to_rows() == results.to_rows()

    def test_csv_and_table_have_all_columns(self):
        results = run(small_spec(tags={"suite": "unit"}))
        csv_text = results.to_csv()
        header = csv_text.splitlines()[0].split(",")
        assert "jsum" in header and "tags.suite" in header
        assert len(csv_text.splitlines()) == len(results) + 1
        table = results.to_table()
        assert "hyperplane" in table

    def test_error_rows_serialize(self):
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(4, 4, 1)],
            stencils=["component"],
            mappers=["blocked"],
        )
        results = run(spec)
        (row,) = results.to_rows()
        assert row["ok"] is False and row["error"]
        assert ResultSet.from_rows([row])[0].ok is False

    def test_with_columns_and_concat(self):
        results = run(small_spec())
        derived = results.with_columns(lambda r: {"double_jsum": 2 * r.jsum})
        assert derived.column("double_jsum") == [2 * v for v in results.column("jsum")]
        combined = results + derived
        assert len(combined) == 2 * len(results)

    def test_getitem_slice(self):
        results = run(small_spec())
        assert isinstance(results[1:3], ResultSet)
        assert len(results[1:3]) == 2


class TestMetricSpecs:
    def test_as_metric_spec(self):
        assert as_metric_spec("weighted_cut_bytes") == MetricSpec(
            "weighted_cut_bytes"
        )
        with pytest.raises(TypeError):
            as_metric_spec(42)

    def test_weighted_bytes_metric_is_hashable_and_picklable(self):
        import pickle

        spec = weighted_bytes_metric({(0, 1): 8, (1, 0): 16})
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_unknown_metric_rejected_on_request(self):
        grid = repro.CartesianGrid([4, 4])
        alloc = NodeAllocation.homogeneous(4, 4)
        with pytest.raises(KeyError, match="unknown metric"):
            repro.MappingRequest(
                grid, repro.nearest_neighbor(2), alloc, "blocked",
                metrics=("no_such_metric",),
            )

    def test_request_normalises_metric_names(self):
        grid = repro.CartesianGrid([4, 4])
        alloc = NodeAllocation.homogeneous(4, 4)
        request = repro.MappingRequest(
            grid, repro.nearest_neighbor(2), alloc, "blocked",
            metrics=("weighted_cut_bytes",),
        )
        assert request.metrics == (MetricSpec("weighted_cut_bytes"),)


class TestPublicSurface:
    def test_top_level_exports(self):
        for name in (
            "sweep",
            "run",
            "run_stream",
            "SweepSpec",
            "InstanceSpec",
            "CellOverride",
            "SweepRow",
            "ResultSet",
            "MetricSpec",
            "register_metric",
            "list_metrics",
            "weighted_bytes_metric",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_module_docstring_example(self):
        spec = repro.SweepSpec(
            instances=[repro.InstanceSpec.from_nodes(n, 8) for n in (4, 8)],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane", "stencil_strips"],
        )
        results = repro.run(spec)
        pivot = results.pivot(values="jmax")
        assert set(pivot) == {"N4_n8_2d", "N8_n8_2d"}


def test_json_output_is_strict_rfc_json():
    """NaN/inf payloads must serialize to parseable strict JSON."""
    results = run(small_spec()).with_columns(
        lambda r: {"nanval": float("nan"), "infval": float("inf")}
    )
    text = results.to_json(indent=None)
    assert "NaN" not in text.replace('"NaN"', "")  # no bare NaN tokens
    parsed = json.loads(text)  # and json stdlib round-trips it
    row = parsed["rows"][0]["metrics"]
    assert row["nanval"] is None
    assert row["infval"] == {"$float": "Infinity"}
    restored = ResultSet.from_json(text)
    assert restored[0].metrics["infval"] == float("inf")
    assert restored[0].metrics["nanval"] is None


def test_string_infinity_payload_survives_round_trip():
    """A literal 'Infinity' string tag must not be coerced to a float."""
    results = run(small_spec(tags={"note": "Infinity"}))
    restored = ResultSet.from_json(results.to_json(indent=None))
    assert restored[0].tags["note"] == "Infinity"
    assert restored.to_rows() == results.to_rows()


def test_numpy_payloads_serialize_json_safe():
    results = run(small_spec()).with_columns(
        lambda r: {"np_val": np.int64(7), "np_f": np.float64(0.5)}
    )
    rows = results.to_rows()
    assert rows[0]["metrics"]["np_val"] == 7
    assert isinstance(rows[0]["metrics"]["np_val"], int)
    assert isinstance(rows[0]["metrics"]["np_f"], float)


# ----------------------------------------------------------------------
# Per-group compilation, tag stripping by copy and direct plain rows,
# pinned against the per-cell code they replaced (kept below as
# references, as it stood before).
# ----------------------------------------------------------------------
def _reference_compile_cell(
    spec, index, instance, alloc_label, alloc, stencil_name,
    resolve_stencil, mapper_name, mapper_spec, is_workload_axis,
) -> SweepCell:
    """One cell, its request constructed and validated on its own."""
    metrics = spec.metrics
    tags = dict(spec.tags)
    if alloc_label is not None:
        tags.setdefault("allocation", alloc_label)
    skip = False
    for override in spec.overrides:
        if override.matches(instance.label, stencil_name, mapper_name):
            if override.metrics is not None:
                metrics = tuple(as_metric_spec(m) for m in override.metrics)
            if override.tags:
                tags.update(override.tags)
            skip = skip or override.skip
    cell = dict(
        index=index, instance=instance, stencil=stencil_name,
        mapper=mapper_name, mapper_spec=mapper_spec, metrics=metrics,
        tags=tags,
    )
    if skip:
        return SweepCell(**cell, error="skipped by override")
    mismatch = None
    if instance.workload is not None and not is_workload_axis:
        mismatch = (
            f"workload instance {instance.label!r} cannot be crossed "
            f"with stencil axis entry {stencil_name!r}: the workload "
            f"({instance.workload.name!r}) supplies its own "
            f"communication structure; list {WORKLOAD_AXIS!r} on the "
            "stencil axis for this instance (or split workload and "
            "Cartesian instances into separate sweeps)"
        )
    elif is_workload_axis and instance.workload is None:
        mismatch = (
            f"stencil axis entry {WORKLOAD_AXIS!r} needs workload "
            f"instances, but instance {instance.label!r} is a plain "
            "grid instance; build workload instances with "
            "InstanceSpec.from_workload(...) (or drop the "
            f"{WORKLOAD_AXIS!r} axis entry)"
        )
    if mismatch is not None:
        return SweepCell(**cell, error=mismatch)
    try:
        if is_workload_axis:
            request = MappingRequest(
                workload=instance.workload, alloc=alloc, mapper=mapper_spec,
                metrics=metrics, tag=index,
            )
        else:
            request = MappingRequest(
                grid=instance.grid, stencil=resolve_stencil(), alloc=alloc,
                mapper=mapper_spec, metrics=metrics, tag=index,
            )
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return SweepCell(**cell, error=f"{type(exc).__name__}: {exc}")
    return SweepCell(**cell, request=request)


def _reference_cells(spec) -> list[SweepCell]:
    cells: list[SweepCell] = []
    stencil_cache: dict = {}
    for instance in spec.instances:
        alloc_axis = (
            [(None, instance.alloc)]
            if spec.allocations is None
            else list(spec.allocations)
        )
        ndim = 0 if instance.grid is None else instance.grid.ndim
        for alloc_label, alloc in alloc_axis:
            for axis_index, (stencil_name, axis_value) in enumerate(spec.stencils):
                def resolve_stencil(i=axis_index, d=ndim):
                    return spec._resolve_stencil(i, d, stencil_cache)

                for mapper_name, mapper_spec in spec.mappers:
                    cells.append(_reference_compile_cell(
                        spec, len(cells), instance, alloc_label, alloc,
                        stencil_name, resolve_stencil, mapper_name,
                        mapper_spec, axis_value is None,
                    ))
    return cells


def _reference_strip(request: MappingRequest) -> MappingRequest:
    """Tag stripping by re-construction."""
    if request.tag is None:
        return request
    if request.workload is not None:
        return MappingRequest(
            workload=request.workload, alloc=request.alloc,
            mapper=request.mapper, perm=request.perm, metrics=request.metrics,
        )
    return MappingRequest(
        grid=request.grid, stencil=request.stencil, alloc=request.alloc,
        mapper=request.mapper, perm=request.perm, metrics=request.metrics,
    )


def _reference_json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return None
        return {"$float": "Infinity" if value > 0 else "-Infinity"}
    if isinstance(value, np.ndarray):
        return _reference_json_safe(value.tolist())
    if isinstance(value, (tuple, list)):
        return [_reference_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference_json_safe(v) for k, v in value.items()}
    return value


def _reference_row(cell, result) -> SweepRow:
    if result is None:
        return SweepRow(
            instance=cell.instance.label, stencil=cell.stencil,
            mapper=cell.mapper, ok=False,
            error=cell.error or "cell did not compile", jsum=None, jmax=None,
            params=dict(cell.instance.params), tags=dict(cell.tags),
        )
    return SweepRow(
        instance=cell.instance.label, stencil=cell.stencil,
        mapper=cell.mapper, ok=result.ok, error=result.error,
        jsum=result.jsum, jmax=result.jmax, metrics=dict(result.metrics),
        params=dict(cell.instance.params), tags=dict(cell.tags),
        result=result,
    )


def _reference_to_rows(rows) -> list[dict]:
    return [
        {
            "instance": row.instance,
            "stencil": row.stencil,
            "mapper": row.mapper,
            "ok": bool(row.ok),
            "error": row.error,
            "jsum": None if row.jsum is None else int(row.jsum),
            "jmax": None if row.jmax is None else int(row.jmax),
            "metrics": _reference_json_safe(row.metrics),
            "params": _reference_json_safe(row.params),
            "tags": _reference_json_safe(row.tags),
        }
        for row in rows
    ]


def _payload_values(ctx, perms, spec):
    """A metric whose columns are NumPy scalars and non-finite floats."""
    return [
        {
            "np_f": np.float64(0.25) * (i + 1),
            "np_i": np.int64(5),
            "nan": float("nan"),
            "inf": float("inf"),
            "ninf": np.float32(-np.inf),
            "plain": 1.5,
        }
        for i in range(perms.shape[0])
    ]


def _raising_factory(ndim):
    raise ValueError(f"no stencil in {ndim}-d")


def _odd_tags():
    return {
        "np": np.float32(0.5),
        "nan": float("nan"),
        "inf": float("-inf"),
        "nested": {"a": [1, np.int64(2)], "t": (3.0, float("inf"))},
        "flag": True,
        "plain": "x",
    }


def _cartesian_reference_spec() -> SweepSpec:
    """Cartesian cells: configured mappers, every compile error, overrides."""
    grid = repro.CartesianGrid([8, 4])
    np_params = InstanceSpec(
        grid=grid,
        alloc=NodeAllocation.homogeneous(4, 8),
        label="np-params",
        params=(
            ("np_int", np.int64(3)),
            ("np_float", np.float64(1.5)),
            ("nan", float("nan")),
            ("inf", float("inf")),
            ("shape", (2, np.int32(3))),
            ("array", np.arange(3)),
        ),
    )
    return SweepSpec(
        instances=[
            InstanceSpec.from_nodes(4, 8),
            InstanceSpec.from_nodes(4, 8, 1),  # component needs >= 2-d
            np_params,
        ],
        stencils=[
            "nearest_neighbor",
            "component",
            ("nn3", repro.nearest_neighbor(3)),  # grid/stencil clash
            ("broken", _raising_factory),
        ],
        mappers=[
            "blocked",
            ("hyper_plain", repro.HyperplaneMapper(use_stencil_order=False)),
            ("gm", repro.GraphMapper(seed=3)),
            "stencil_strips",
        ],
        allocations=[
            ("regular", NodeAllocation.homogeneous(8, 4)),
            ("mismatch", NodeAllocation.homogeneous(3, 5)),
        ],
        metrics=["test_payload_values"],
        tags=_odd_tags(),
        overrides=[
            CellOverride(mapper="blocked", metrics=()),
            CellOverride(mapper="gm", metrics=["test_payload_values"]),
            CellOverride(instance="np-params", tags={"marked": np.int16(7)}),
            CellOverride(stencil="component", mapper="hyper_plain", skip=True),
            CellOverride(mapper="stencil_strips", tags={"late": float("nan")}),
        ],
    )


def _workload_reference_spec() -> SweepSpec:
    """Workload cells of both families, crossed both ways with stencils."""
    alloc = NodeAllocation.homogeneous(4, 4)
    grid = repro.CartesianGrid([4, 4])
    nn = repro.nearest_neighbor(2)
    return SweepSpec(
        instances=[
            InstanceSpec.from_workload(
                CartesianWorkload(grid, nn), alloc, label="cartesian",
                params=(("np", np.float64(2.5)),),
            ),
            InstanceSpec.from_workload(
                StencilProgramWorkload(grid, [("a", nn), ("b", nn)]),
                alloc, label="program",
            ),
            InstanceSpec.from_workload(
                as_workload(random_sparse_workload(16, 3, seed=4)),
                alloc, label="graph", params=(("inf", float("-inf")),),
            ),
            InstanceSpec.from_nodes(4, 4),  # plain, on the workload axis
        ],
        stencils=[WORKLOAD_AXIS, "nearest_neighbor"],
        mappers=["blocked", ("gm", repro.GraphMapper(seed=1)), "graphmap"],
        metrics=["test_payload_values"],
        tags=_odd_tags(),
        overrides=[
            CellOverride(instance="graph", mapper="blocked", skip=True),
            CellOverride(mapper="graphmap", metrics=[]),
            CellOverride(instance="program", tags={"stage": np.int64(2)}),
        ],
    )


_REFERENCE_SPECS = {
    "cartesian": _cartesian_reference_spec,
    "workload": _workload_reference_spec,
    "figure8-slice": lambda: figure8_sweep(
        "nearest_neighbor", instances=instance_set()[:6]
    ),
}


@pytest.fixture(params=sorted(_REFERENCE_SPECS))
def reference_spec(request):
    register_metric("test_payload_values", _payload_values, replace=True)
    return _REFERENCE_SPECS[request.param]()


class TestGroupCompileMatchesReference:
    def test_cells_and_requests_match_per_cell_construction(self, reference_spec):
        cells = reference_spec.cells()
        expected = _reference_cells(reference_spec)
        assert len(cells) == len(expected)
        for cell, ref in zip(cells, expected):
            assert type(cell) is SweepCell
            assert cell.__dict__.keys() == ref.__dict__.keys()
            assert (cell.index, cell.stencil, cell.mapper, cell.error) == (
                ref.index, ref.stencil, ref.mapper, ref.error,
            )
            assert cell.instance is ref.instance
            assert cell.mapper_spec is ref.mapper_spec
            assert cell.metrics == ref.metrics
            assert repr(cell.tags) == repr(ref.tags)
            assert (cell.request is None) == (ref.request is None)
            if ref.request is None:
                continue
            assert type(cell.request) is MappingRequest
            # the same fields, in the same order, with equal values
            assert list(cell.request.__dict__) == list(ref.request.__dict__)
            for name, value in ref.request.__dict__.items():
                assert cell.request.__dict__[name] == value, name
            assert cell.request.mapper is ref.request.mapper
            assert cell.request.workload is ref.request.workload

    def test_reference_specs_reach_every_kind_of_error_cell(self):
        register_metric("test_payload_values", _payload_values, replace=True)
        errors = [
            cell.error
            for build in (_cartesian_reference_spec, _workload_reference_spec)
            for cell in build().cells()
        ]
        for prefix in (
            "skipped by override",
            "InvalidStencilError: stencil dimensionality 3",  # grid clash
            "InvalidStencilError: the component stencil",  # factory, 1-d
            "ValueError: no stencil in",  # raising factory
            "AllocationError:",
            "workload instance 'graph' cannot be crossed",
            f"stencil axis entry {WORKLOAD_AXIS!r} needs workload",
        ):
            assert any(e and e.startswith(prefix) for e in errors), prefix
        assert errors.count(None) > 0

    def test_stripped_requests_pickle_like_reconstructed_ones(self, reference_spec):
        cells = reference_spec.cells()
        expected = _reference_cells(reference_spec)
        compared = 0
        for cell, ref in zip(cells, expected):
            if ref.request is None:
                continue
            stripped = strip_request_tag(cell.request)
            assert stripped.tag is None and cell.request.tag == cell.index
            assert pickle.dumps(stripped) == pickle.dumps(
                _reference_strip(ref.request)
            )
            compared += 1
        assert compared > 0

    def test_to_rows_matches_reference(self, reference_spec):
        results = run(reference_spec)
        pairs = list(results._pending)
        expected = _reference_to_rows(_reference_row(c, r) for c, r in pairs)
        direct = results.to_rows()  # built from (cell, result) pairs
        assert direct == expected
        assert repr(direct) == repr(expected)  # 1 vs True vs 1.0 too
        assert results._rows is None  # no SweepRow was materialised
        materialised = [vars(row) for row in results.rows]
        reference_rows = [vars(_reference_row(c, r)) for c, r in pairs]
        assert repr(materialised) == repr(reference_rows)
        assert repr(results.to_rows()) == repr(expected)
        # fresh dicts per row: mutating one leaves the others alone
        direct[0]["params"]["mutated"] = 1
        direct[0]["tags"]["mutated"] = 1
        assert "mutated" not in direct[1]["params"]
        assert "mutated" not in direct[1]["tags"]

    def test_json_safe_copies_flat_dicts_and_converts_the_rest(self):
        flat = {"s": "x", "i": 3, "b": False, "n": None, "f": 0.5}
        copied = _json_safe(flat)
        assert copied == flat and copied is not flat
        for value in (
            {"np": np.float64(0.5)},
            {"nan": float("nan")},
            {"inf": float("inf")},
            {1: "int key"},
            {"list": [1, np.int64(2)]},
            {"sub": {"x": float("-inf")}},
            {"enum": np.int8(1)},
        ):
            assert repr(_json_safe(value)) == repr(_reference_json_safe(value))


def test_figure8_sweep_validates_once_per_instance_group(monkeypatch):
    """1008 cells of 144 (instance, stencil) groups: 144 validations, and
    tag stripping adds none."""
    calls = []
    validate = MappingRequest.__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(MappingRequest, "__post_init__", counting)
    spec = figure8_sweep("nearest_neighbor")
    requests = spec.compile()
    assert len(spec.cells()) == len(requests) == 1008
    assert len(calls) == 144
    shard_payloads(requests, 32)
    assert len(calls) == 144


def test_figure8_sweep_deals_with_one_key_hash_per_instance_group(monkeypatch):
    """The 1008 cells share 144 sets of instance objects: dealing them
    into shards hashes a stencil at most once per set, and the groups
    are those of a plain ``instance_key`` grouping, in the same order."""
    requests = figure8_sweep("nearest_neighbor").compile()
    plain: dict = {}
    for i, request in enumerate(requests):
        plain.setdefault(request.instance_key, []).append(i)
    assert group_by_instance(requests) == plain
    assert list(group_by_instance(requests)) == list(plain)
    calls = []
    stencil_hash = Stencil.__hash__

    def counting(self):
        calls.append(self)
        return stencil_hash(self)

    monkeypatch.setattr(Stencil, "__hash__", counting)
    shard_payloads(requests, 32)
    assert 0 < len(calls) <= 144
