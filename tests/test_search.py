"""Portfolio search (racing) and the METRICS observability surface.

Covers the `repro.search` subsystem — rung schedules, racing
determinism, exact cell counts, audit trails, budgets — plus the v6
METRICS round-trip (queue age, per-job progress/ETA, store gauges) and
the `watch`/`search` CLI verbs.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import (
    InstanceSpec,
    SearchError,
    SearchSpec,
    ServiceClient,
    ServiceDaemon,
    run,
    run_search,
)
from repro.engine import EvaluationEngine

from .test_cluster import _spawn_worker
from .test_service import _FakeServiceWorker

CANDIDATES = ("blocked", "hyperplane", "kd_tree", "random")
# Eight instances race in rungs of 1, 2, 4 and 8: 4 + 2 + 1x2 + 1x4 cells.
EIGHT_NODES = (4, 8, 12, 16, 20, 27, 32, 45)


def _spec(nodes=(4, 8, 16, 27), candidates=CANDIDATES, **kwargs):
    return SearchSpec(
        [InstanceSpec.from_nodes(n, 8) for n in nodes],
        candidates=candidates,
        **kwargs,
    )


class _SlowBackend:
    """A shared, thread-safe backend that paces every evaluation.

    Slowing each cell down keeps losers mid-stream when the rankings
    land, so early cancellation measurably saves cells.
    """

    def __init__(self, delay: float = 0.01):
        self.delay = delay

    def evaluate_batch(self, requests):
        return list(self.evaluate_stream(requests))

    def evaluate_stream(self, requests):
        with EvaluationEngine(max_workers=1) as engine:
            for request in requests:
                time.sleep(self.delay)
                yield engine.evaluate_batch([request])[0]

    def close(self):
        pass


# ----------------------------------------------------------------------
# Spec shapes and validation
# ----------------------------------------------------------------------
class TestSearchSpec:
    def test_rung_schedule_doubles_to_the_full_set(self):
        assert _spec(nodes=(4, 8, 16, 27, 32, 45, 64, 81)).rungs() == (
            1,
            2,
            4,
            8,
        )

    def test_rung_schedule_clamps_the_last_rung(self):
        assert _spec(nodes=(4, 8, 16, 27, 32)).rungs() == (1, 2, 4, 5)

    def test_single_instance_is_one_rung(self):
        assert _spec(nodes=(4,)).rungs() == (1,)

    def test_min_instances_starts_deeper(self):
        assert _spec(
            nodes=(4, 8, 16, 27, 32), min_instances=2
        ).rungs() == (2, 4, 5)

    def test_exhaustive_cell_count(self):
        spec = _spec()
        assert spec.exhaustive_cells == 4 * len(CANDIDATES)
        assert spec.cells_per_instance == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            _spec(eta=1)
        with pytest.raises(ValueError, match="min_instances"):
            _spec(min_instances=0)
        with pytest.raises(ValueError, match="budget_seconds"):
            _spec(budget_seconds=0)
        with pytest.raises(ValueError, match="max_cells"):
            _spec(max_cells=0)
        with pytest.raises(ValueError, match="objective"):
            _spec(objective="")


# ----------------------------------------------------------------------
# The racing driver (local backends)
# ----------------------------------------------------------------------
class TestRacing:
    def test_same_seed_same_winner_and_audit(self):
        """Racing decisions are deterministic: same seed, same winner,
        same eliminations, same cell counts."""

        def records(result):
            return [audit.to_record() for audit in result.candidates]

        first = run_search(_spec(seed=3))
        second = run_search(_spec(seed=3))
        assert first.winner == second.winner
        assert first.instance_order == second.instance_order
        assert first.rungs == second.rungs
        assert first.cells_evaluated == second.cells_evaluated
        assert records(first) == records(second)

    def test_seed_shuffles_the_instance_order(self):
        orders = {
            run_search(_spec(seed=seed)).instance_order for seed in range(4)
        }
        assert len(orders) > 1

    def test_winner_matches_exhaustive_argmin_byte_identical(self):
        """Acceptance: the search returns the same best mapper as the
        exhaustive sweep, and the winner's rows are byte-identical to
        that mapper's slice of the exhaustive ResultSet."""
        spec = _spec()
        result = run_search(spec)
        exhaustive = run(spec.base)
        totals = {
            mapper: sum(
                row.jsum for row in rows if row.ok and row.jsum is not None
            )
            for mapper, rows in exhaustive.ok().group_by("mapper").items()
        }
        assert result.winner == min(totals, key=totals.get)
        assert (
            result.winner_rows.to_json()
            == exhaustive.filter(mapper=result.winner).to_json()
        )
        assert result.complete
        assert result.best_row is not None

    def test_topology_hop_cut_as_objective(self):
        """The hop-weighted cut drives candidate selection end to end:
        the winner is the exhaustive argmin of the ``hop_cut`` column."""
        import repro

        metric = repro.topology_cut_metric(repro.Torus3DTopology((3, 3, 3)))
        spec = _spec(
            nodes=(4, 8, 16, 27),
            metrics=[metric],
            objective="hop_cut",
        )
        result = run_search(spec)
        assert result.complete
        exhaustive = run(spec.base)
        totals = {
            mapper: sum(row.metrics["hop_cut"] for row in rows if row.ok)
            for mapper, rows in exhaustive.ok().group_by("mapper").items()
        }
        assert result.winner == min(totals, key=totals.get)

    def test_early_cancel_evaluates_fewer_cells_than_exhaustive(self):
        spec = _spec(nodes=EIGHT_NODES)
        result = run_search(spec, backend=_SlowBackend())
        assert result.complete
        assert result.cells_evaluated == 12
        assert result.exhaustive_cells == 32
        # the winner still evaluated everything; some loser was cut short
        assert result.audit(result.winner).cells_evaluated == 8

    @pytest.mark.parametrize("backend", [None, "serial", "process:2"])
    def test_rungs_evaluate_an_exact_cell_count(self, backend):
        """One job per rung: a candidate dropped at rung r evaluated the
        first k[r] instances and nothing more, on every backend."""
        result = run_search(_spec(nodes=EIGHT_NODES), backend=backend)
        assert result.complete
        assert result.cells_evaluated == 12
        counts = sorted(audit.cells_evaluated for audit in result.candidates)
        assert counts == [1, 1, 2, 8]

    def test_serial_race_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(thread):
            raise AssertionError(f"the race started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = run_search(_spec(), backend="serial")
        assert result.complete

    def test_dominated_candidates_carry_a_full_audit_trail(self):
        result = run_search(_spec())
        statuses = {audit.name: audit.status for audit in result.candidates}
        assert statuses[result.winner] == "winner"
        eliminated = [
            audit
            for audit in result.candidates
            if audit.status == "eliminated"
        ]
        assert eliminated  # halving must have killed someone
        for audit in eliminated:
            assert "dominated at rung" in audit.reason
            assert "vs leader" in audit.reason
            assert audit.rung_reached in audit.scores
            assert audit.instances_scored >= 1
        # every candidate is accounted for, winner first in the records
        assert {a.name for a in result.candidates} == set(CANDIDATES)
        assert result.to_records()[0]["status"] == "winner"

    def test_failed_candidate_is_eliminated_and_race_continues(self):
        result = run_search(
            _spec(candidates=("blocked", "hyperplane", "no_such_mapper"))
        )
        audit = result.audit("no_such_mapper")
        assert audit.status == "error"
        assert "no_such_mapper" in audit.reason
        assert result.winner in ("blocked", "hyperplane")
        assert result.complete

    def test_a_raising_mapper_fails_its_rung(self):
        """An exception other than ``MappingError`` fails the rung's
        whole job, as it fails ``run(spec.base)``."""
        import repro

        class Broken(repro.BlockedMapper):
            def map_ranks(self, grid, stencil, alloc):
                raise RuntimeError("broken mapper")

        spec = _spec(candidates={"blocked": "blocked", "broken": Broken()})
        with pytest.raises(RuntimeError, match="broken mapper"):
            run(spec.base)
        with pytest.raises(SearchError, match="RuntimeError: broken mapper"):
            run_search(spec)

    def test_every_candidate_failing_raises_search_error(self):
        with pytest.raises(SearchError, match="every candidate failed"):
            run_search(_spec(candidates=("nope_a", "nope_b")))

    def test_cell_budget_cuts_the_race_short(self):
        result = run_search(
            _spec(nodes=EIGHT_NODES, max_cells=10),
            backend=_SlowBackend(),
        )
        # rungs 0-2 take 4 + 2 + 2 cells; rung 3's 4 would pass 10
        assert result.cells_evaluated == 8
        assert not result.complete
        assert result.winner in CANDIDATES
        # the budget reason lands on the survivors it cut — or on the
        # winner itself when the field had already narrowed to one
        cut = [
            audit
            for audit in result.candidates
            if audit.reason and "cell budget (10) exhausted" in audit.reason
        ]
        assert cut
        assert all(
            audit.status in ("budget", "winner") for audit in cut
        )
        assert result.cells_evaluated < result.exhaustive_cells

    def test_cell_budget_below_the_first_rung_raises(self):
        with pytest.raises(SearchError, match=r"cell budget \(3\) exhausted"):
            run_search(_spec(nodes=EIGHT_NODES, max_cells=3))

    def test_wall_clock_budget_ends_on_the_last_ranked_rung(self, monkeypatch):
        """The clock runs out as the first row of rung 1 lands: the row
        counts, rung 0's ranking stands, and its leader wins."""
        now = [0.0]

        class Clock:
            """The driver's ``time`` module, under the test's control."""

            @staticmethod
            def monotonic():
                return now[0]

        class Expiring:
            """A serial engine whose fifth result lands past the deadline."""

            def __init__(self):
                self.engine = EvaluationEngine()
                self.results = 0

            def evaluate_stream(self, requests):
                for result in self.engine.evaluate_stream(requests):
                    self.results += 1
                    if self.results == 5:
                        now[0] = 1000.0
                    yield result

        monkeypatch.setattr("repro.search.driver.time", Clock)
        result = run_search(
            _spec(nodes=EIGHT_NODES, budget_seconds=60), backend=Expiring()
        )
        assert not result.complete
        assert result.cells_evaluated == 5
        leader = min(
            result.candidates,
            key=lambda a: (a.scores[0], CANDIDATES.index(a.name)),
        )
        assert result.winner == leader.name
        statuses = sorted(audit.status for audit in result.candidates)
        assert statuses == ["budget", "eliminated", "eliminated", "winner"]
        for audit in result.candidates:
            assert audit.rung_reached == 0  # rung 1 ranked nobody
            if audit.status in ("budget", "winner"):
                assert audit.reason == (
                    "wall-clock budget (60s) expired during rung 1"
                )

    def test_result_json_document(self):
        result = run_search(_spec())
        document = json.loads(result.to_json())
        assert document["schema"] == "repro.search/v1"
        assert document["winner"] == result.winner
        assert document["rungs"] == [1, 2, 4]
        assert len(document["candidates"]) == len(CANDIDATES)
        assert len(document["winner_rows"]) == 4
        assert document["best_row"]["mapper"] == result.winner
        assert document["exhaustive_cells"] == 16


# ----------------------------------------------------------------------
# METRICS: queue age, per-job progress/ETA, store gauges (v6)
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_shape_and_queue_age_growth(self):
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)
            handle = client.submit(
                [[("m", i)] for i in range(3)], label="metrics"
            )
            try:
                first = client.metrics()
                assert first["schema"] == "repro.metrics/v1"
                assert first["queue"]["depth"] == 3
                assert first["queue"]["oldest_age"] >= 0.0
                assert first["store"]["enabled"] is False
                for key in ("workers", "busy", "queued_shards",
                            "completed_shards", "worker_early_deaths"):
                    assert key in first["pool"]
                (job,) = [
                    j
                    for j in first["jobs"]
                    if j["job"] == handle.job_id
                ]
                assert job["dispatched"] == 0
                assert job["remaining"] == 3
                assert job["progress"] == 0.0
                assert job["eta"] is None  # no completion yet, no rate
                time.sleep(0.25)
                second = client.metrics()
                assert (
                    second["queue"]["oldest_age"]
                    > first["queue"]["oldest_age"]
                )
                # the daemon surface method serves the same document
                assert daemon.metrics()["queue"]["depth"] == 3
            finally:
                client.cancel(handle.job_id)
                handle.close()
                client.close()

    def test_eta_shrinks_under_a_steadily_completing_worker(self):
        """Hand-driven worker at a steady pace: each completion lowers
        the rate-based ETA."""
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)
            worker = _FakeServiceWorker(daemon.port)
            handle = client.submit([[("e", i)] for i in range(4)], label="eta")
            try:
                etas = []
                for completed in range(1, 4):
                    message = worker.pull()
                    time.sleep(0.25)
                    worker.finish(message[1], message[2])
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        (job,) = [
                            j
                            for j in client.metrics()["jobs"]
                            if j["job"] == handle.job_id
                        ]
                        if job["completed"] == completed:
                            break
                        time.sleep(0.02)
                    assert job["completed"] == completed
                    assert job["progress"] == pytest.approx(completed / 4)
                    assert job["rate"] > 0
                    etas.append(job["eta"])
                assert all(eta is not None for eta in etas)
                assert etas[0] > etas[1] > etas[2] > 0
                message = worker.pull()
                worker.finish(message[1], message[2])
                assert len(list(handle.results())) == 4
                # a finished job reports ETA 0 from the history record
                (job,) = [
                    j
                    for j in client.metrics()["jobs"]
                    if j["job"] == handle.job_id
                ]
                assert job["state"] == "done"
                assert job["eta"] == 0.0
                assert job["progress"] == 1.0
            finally:
                worker.close()
                handle.close()
                client.close()

    def test_store_counters_and_prune_policy(self, tmp_path):
        with ServiceDaemon(
            "127.0.0.1",
            0,
            heartbeat_timeout=30.0,
            disk_cache_dir=tmp_path,
            store_max_bytes=1 << 20,
            store_ttl=3600.0,
            store_prune_interval=0.1,
        ) as daemon:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                store = daemon.metrics()["store"]
                if store["prune"]["runs"] > 0:
                    break
                time.sleep(0.05)
            assert store["enabled"] is True
            assert store["prune"]["max_bytes"] == 1 << 20
            assert store["prune"]["ttl"] == 3600.0
            assert store["prune"]["runs"] > 0
            assert store["prune"]["removed_total"] == 0  # nothing to evict
            assert store["prune"]["errors"] == 0
            assert store["hits"] == 0 and store["misses"] == 0

    def test_failed_prune_rounds_are_counted(self, tmp_path, monkeypatch):
        """A prune round that raises is counted in METRICS, and the
        daemon keeps answering."""

        def broken_prune(*args, **kwargs):
            raise OSError("cache dir unreadable")

        monkeypatch.setattr("repro.service.daemon.prune", broken_prune)
        with ServiceDaemon(
            "127.0.0.1",
            0,
            heartbeat_timeout=30.0,
            disk_cache_dir=tmp_path,
            store_max_bytes=1 << 20,
            store_prune_interval=0.05,
        ) as daemon:
            with ServiceClient("127.0.0.1", daemon.port) as client:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    prune = client.metrics()["store"]["prune"]
                    if prune["errors"] >= 2:
                        break
                    time.sleep(0.05)
            assert prune["errors"] >= 2  # the loop survived its first failure
            assert prune["last_error"] == "OSError: cache dir unreadable"
            assert prune["runs"] == 0

    def test_store_policy_requires_a_cache_dir(self):
        with pytest.raises(ValueError, match="cache"):
            ServiceDaemon("127.0.0.1", 0, store_max_bytes=1 << 20)


# ----------------------------------------------------------------------
# CLI: `watch` and `search`
# ----------------------------------------------------------------------
class TestSearchCLI:
    def test_watch_json_document(self, tmp_path):
        from repro.experiments.__main__ import main as experiments_main

        output = tmp_path / "metrics.json"
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)
            handle = client.submit([[("w", 0)]], label="watched")
            try:
                assert (
                    experiments_main(
                        [
                            "watch",
                            "--connect",
                            f"127.0.0.1:{daemon.port}",
                            "--format",
                            "json",
                            "--output",
                            str(output),
                        ]
                    )
                    == 0
                )
            finally:
                client.cancel(handle.job_id)
                handle.close()
                client.close()
        document = json.loads(output.read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert "oldest_age" in document["queue"]
        assert any("eta" in job for job in document["jobs"])

    def test_watch_once_renders_a_table(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            assert (
                experiments_main(
                    ["watch", "--connect", f"127.0.0.1:{daemon.port}", "--once"]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "queue depth=0" in out
        assert "eta" in out

    def test_search_cli_json_matches_library_run(self, tmp_path):
        from repro.experiments.__main__ import main as experiments_main

        output = tmp_path / "search.json"
        assert (
            experiments_main(
                [
                    "search",
                    "--nodes",
                    "4,8,16,27",
                    "--mappers",
                    ",".join(CANDIDATES),
                    "--seed",
                    "0",
                    "--format",
                    "json",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        document = json.loads(output.read_text())
        assert document["schema"] == "repro.search/v1"
        library = run_search(_spec(seed=0))
        assert document["winner"] == library.winner
        assert document["winner_rows"] == library.winner_rows.to_rows()

    def test_search_cli_rejects_bad_nodes(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["search", "--nodes", "4,banana"])

    def test_search_cli_takes_no_priority(self, capsys):
        """A job priority travels in ``service:host:port:priority``."""
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit) as exit_info:
            experiments_main(["search", "--priority", "1", "--nodes", "4"])
        assert exit_info.value.code == 2


# ----------------------------------------------------------------------
# The racing driver over the service tier (in-process daemon, real work)
# ----------------------------------------------------------------------
class TestSearchOverService:
    def test_service_backend_race_matches_local(self):
        """One in-process daemon with two worker processes; the race over
        per-candidate service jobs crowns the same winner with the same
        rows as the local race (and as the exhaustive sweep, by
        transitivity)."""
        spec = _spec()
        local = run_search(spec)
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            workers = [_spawn_worker(daemon.port) for _ in range(2)]
            # A worker still connecting when the daemon closes retries
            # for its whole connect timeout.
            daemon.wait_for_workers(2, timeout=30)
            remote = run_search(
                _spec(), backend=f"service:127.0.0.1:{daemon.port}"
            )
        for worker in workers:
            worker.wait(timeout=30)
        assert remote.winner == local.winner
        assert remote.winner_rows.to_json() == local.winner_rows.to_json()
        assert remote.complete

    def test_service_race_is_one_job_per_rung(self):
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            workers = [_spawn_worker(daemon.port) for _ in range(2)]
            daemon.wait_for_workers(2, timeout=30)
            result = run_search(
                _spec(nodes=EIGHT_NODES),
                backend=f"service:127.0.0.1:{daemon.port}",
            )
            jobs = daemon.jobs()
        for worker in workers:
            assert worker.wait(timeout=30) == 0
        assert result.complete
        assert result.cells_evaluated == 12
        counts = sorted(audit.cells_evaluated for audit in result.candidates)
        assert counts == [1, 1, 2, 8]
        assert [job["state"] for job in jobs] == ["done"] * 4
