"""Tests for the scaling extension experiment and the CLI entry point."""

import json

import pytest

from repro import BlockedMapper, HyperplaneMapper, StencilStripsMapper
from repro.engine import ProcessBackend
from repro.exceptions import AllocationError
from repro.experiments import scaling_sweep, speedup_ratio
from repro.experiments.__main__ import example_sweep
from repro.experiments.__main__ import main as experiments_main
from repro.sweep import run


class TestScalingSweep:
    def test_structure_and_trend(self):
        mappers = {
            "blocked": BlockedMapper(),
            "hyperplane": HyperplaneMapper(),
            "stencil_strips": StencilStripsMapper(),
        }
        sweep = scaling_sweep(
            "VSC4",
            node_counts=(4, 9, 16),
            mappers=mappers,
            processes_per_node=16,
        )
        assert set(sweep) == {"hyperplane", "stencil_strips"}
        for points in sweep.values():
            assert [p.num_nodes for p in points] == [4, 9, 16]
            for p in points:
                assert 0 < p.jsum_reduction < 1.0
                assert p.model_speedup > 1.0

    def test_speedup_persists_at_scale(self):
        sweep = scaling_sweep(
            "VSC4",
            node_counts=(25, 100),
            mappers={
                "blocked": BlockedMapper(),
                "stencil_strips": StencilStripsMapper(),
            },
        )
        points = sweep["stencil_strips"]
        assert all(p.model_speedup > 1.5 for p in points)

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            scaling_sweep("Summit", node_counts=(4,))

    def test_oversubscribed_node_count_raises(self):
        """Regression: sweeping past the machine size must not silently
        time a model smaller than the evaluated grid."""
        with pytest.raises(AllocationError, match="790"):
            scaling_sweep(
                "VSC4",
                node_counts=(800,),
                mappers={
                    "blocked": BlockedMapper(),
                    "hyperplane": HyperplaneMapper(),
                },
                processes_per_node=1,
            )

    def test_speedup_ratio_zero_semantics(self):
        """Regression: a zero mapped time is an infinite speedup, not 1."""
        assert speedup_ratio(1.5, 0.0) == float("inf")
        assert speedup_ratio(0.0, 0.0) == 1.0
        assert speedup_ratio(3.0, 1.5) == 2.0

    def test_backend_matches_default_path(self, tmp_path):
        mappers = {
            "blocked": BlockedMapper(),
            "hyperplane": HyperplaneMapper(),
        }
        kwargs = dict(node_counts=(4, 9), processes_per_node=16)
        default = scaling_sweep("VSC4", mappers=dict(mappers), **kwargs)
        with ProcessBackend(2, disk_cache_dir=tmp_path) as backend:
            sharded = scaling_sweep(
                "VSC4", mappers=dict(mappers), backend=backend, **kwargs
            )
        assert default == sharded  # ScalingPoint dataclasses compare by value
        # Registry names make the cells storable: the workers publish
        # one result cell per (node count, mapper) and nothing else (the
        # parent's model-time loop builds its own edges), and a second
        # pool, which finds them stored, returns the same points.
        named = {name: name for name in mappers}
        for _ in range(2):
            with ProcessBackend(2, disk_cache_dir=tmp_path) as backend:
                stored = scaling_sweep(
                    "VSC4", mappers=dict(named), backend=backend, **kwargs
                )
            assert stored == default
            files = [path.name for path in tmp_path.iterdir()]
            assert len(files) == 4
            assert all(
                name.startswith("result-") and name.endswith(".cell")
                for name in files
            )


class TestCLI:
    def test_figure9(self, capsys):
        assert experiments_main(["figure9"]) == 0
        out = capsys.readouterr().out
        assert "VieM*" in out and "per-rank" in out

    def test_figure8_fast(self, capsys):
        assert experiments_main(["figure8", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "median" in out

    def test_figure8_names_match_mapper_instances(self, capsys, monkeypatch):
        """The verb's registry-name sweep renders byte for byte what the
        same sweep over configured ``Mapper`` instances renders."""
        from repro.experiments import __main__ as cli
        from repro.experiments.context import DEFAULT_MAPPERS

        outputs = []
        for instances in (False, True):
            if instances:
                real = cli.figure8_reductions

                def with_instances(family, *, mappers, **kwargs):
                    configured = DEFAULT_MAPPERS()
                    return real(
                        family,
                        mappers={name: configured[name] for name in mappers},
                        **kwargs,
                    )

                monkeypatch.setattr(cli, "figure8_reductions", with_instances)
            for fmt in ("table", "json"):
                assert experiments_main(["figure8", "--fast", "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]

    def test_figure8_repeat_is_answered_from_the_store(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every cell of the verb's sweep is storable, so a second run on
        the same directory runs no mapper and builds no edges."""
        argv = ["figure8", "--fast", "--cache-dir", str(tmp_path), "--format", "json"]
        assert experiments_main(argv) == 0
        cold = capsys.readouterr().out
        # 36 instances x blocked + five mappers (graphmap is not --fast)
        assert len(list(tmp_path.glob("result-*.cell"))) == 36 * 6

        def refuse(*args):
            raise AssertionError("a stored cell was recomputed")

        monkeypatch.setattr("repro.engine.engine.resolve_mapper", refuse)
        monkeypatch.setattr("repro.engine.engine.communication_edges", refuse)
        assert experiments_main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_figure8_backend_spec(self, capsys):
        """``--backend process --shards 2`` emits the serial run's rows
        byte for byte."""
        outputs = []
        for backend in (["serial"], ["process", "--shards", "2"]):
            argv = ["figure8", "--fast", "--format", "json", "--backend", *backend]
            assert experiments_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        serial, process = outputs
        assert process == serial
        assert json.loads(serial)["rows"]

    def test_invalid_backend_spec(self):
        with pytest.raises(SystemExit):
            experiments_main(["figure8", "--fast", "--backend", "gpu"])

    def test_table(self, capsys):
        assert experiments_main(["table", "II", "--reps", "5"]) == 0
        out = capsys.readouterr().out
        assert "VSC4" in out and "524288" in out

    def test_table_requires_valid_id(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main(["table", "IX"])

    def test_ablations(self, capsys):
        assert experiments_main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "serpentine" in out and "topology-aware" in out

    def test_invalid_target(self):
        for verb in ("figure10", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                experiments_main([verb])
            assert excinfo.value.code == 2

    def test_no_arguments_run_the_readme_example_sweep(self, capsys):
        assert experiments_main([]) == 0
        assert capsys.readouterr().out == run(example_sweep()).to_table() + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            "figure6 --backend serial",
            "figure9 --cache-dir d",
            "table II --fast",
            "search --shards 2",
            "search --cache-dir d",
            "status --connect h:1 --fast",
            "watch --connect h:1 --backend serial",
            "cache --connect h:1",
            "work --connect h:1 --format json",
            "serve-jobs --connect h:1",
            "serve-jobs --autoscale",
            "serve-jobs --backend serial",
            "submit sweep --connect h:1 --shards 2",
        ],
    )
    def test_flag_the_verb_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(argv.split())
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGraphMapperRestarts:
    def test_restarts_never_worse(self):
        from repro import (
            CartesianGrid,
            GraphMapper,
            NodeAllocation,
            evaluate_mapping,
            nearest_neighbor,
        )

        grid = CartesianGrid([12, 8])
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(8, 12)
        one = GraphMapper(seed=11, restarts=1).map_ranks(grid, stencil, alloc)
        three = GraphMapper(seed=11, restarts=3).map_ranks(grid, stencil, alloc)
        j1 = evaluate_mapping(grid, stencil, one, alloc).jsum
        j3 = evaluate_mapping(grid, stencil, three, alloc).jsum
        assert j3 <= j1

    def test_invalid_restarts(self):
        from repro import GraphMapper

        with pytest.raises(ValueError):
            GraphMapper(restarts=0)

    def test_repr_mentions_restarts(self):
        from repro import GraphMapper

        assert "restarts=2" in repr(GraphMapper(restarts=2))
