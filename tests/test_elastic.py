"""The elastic multi-tenant service tier: autoscaler, fair share, TLS.

Covers the acceptance criteria of the elastic tier: a daemon started at
``min_workers=0`` scales up under load by spawning real worker
subprocesses, serves results byte-identical to serial evaluation, and
drains the pool back to the floor when idle (over TLS end to end); a
flooding tenant's shards interleave with — rather than starve — another
tenant's single job; per-client admission quotas answer over-quota
submissions with a clean ``REJECTED``; and the daemon survives shutdown
with a non-empty multi-tenant queue.  Plus unit tests for the
autoscaler control loop (pending-spawn ledger, idle drain, pool
bounds), the spawner argv/env construction, and the TLS context
helpers.
"""

from __future__ import annotations

import asyncio
import sys
import time

import pytest

from repro import (
    Autoscaler,
    EvaluationEngine,
    ExecSpawner,
    LocalSpawner,
    ServiceBackend,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)
from repro.engine.cluster.protocol import (
    PROTOCOL_VERSION,
    REJECTED,
    SECRET_ENV,
    TLS_CA_ENV,
    TLS_CERT_ENV,
    TLS_KEY_ENV,
    client_tls_context,
    resolve_tls,
    server_tls_context,
)

from .conftest import make_cert
from .test_backends import _requests, _signature
from .test_service import _FakeServiceWorker

@pytest.fixture(scope="module")
def serial_results():
    return EvaluationEngine(max_workers=1).evaluate_batch(_requests())


# ----------------------------------------------------------------------
# Fair-share scheduling and admission control (hand-driven worker)
# ----------------------------------------------------------------------
class TestFairShare:
    def test_flooding_tenant_does_not_starve_another(self):
        """Acceptance: with tenant A flooding the queue, tenant B's
        single shard is dispatched within one shard round of its
        submission instead of behind all of A's backlog."""
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            a = ServiceClient("127.0.0.1", daemon.port, tenant="alpha")
            b = ServiceClient("127.0.0.1", daemon.port, tenant="beta")
            flood = a.submit([[("flood", i)] for i in range(6)], label="flood")
            try:
                first = worker.pull()  # one alpha shard dispatched
                assert first[1] in flood.shard_ids
                single = b.submit([[("single", 0)]], label="single")
                assert b.status(single.job_id)[0]["state"] == "queued"
                # alpha finishes the round it started; beta's shard is
                # the very next dispatch, 5 alpha shards still queued.
                order = []
                for _ in range(2):
                    message = worker.pull()
                    order.append(
                        "beta" if message[1] in single.shard_ids else "alpha"
                    )
                    worker.finish(message[1], message[2])
                assert order == ["alpha", "beta"]
                for _ in range(4):  # alpha's remaining backlog
                    message = worker.pull()
                    assert message[1] in flood.shard_ids
                    worker.finish(message[1], message[2])
                worker.finish(first[1], first[2])
                assert len(list(single.results())) == 1
                assert len(list(flood.results())) == 6
                single.close()
            finally:
                worker.close()
                flood.close()

    def test_single_tenant_keeps_priority_fifo_order(self):
        """With one tenant the fair-share queue degenerates to the old
        (priority desc, submission FIFO, shard order) dispatch."""
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            low = client.submit([[("low", i)] for i in range(2)], priority=0)
            high = client.submit([[("high", i)] for i in range(2)], priority=5)
            try:
                order = []
                for _ in range(4):
                    message = worker.pull()
                    order.append(
                        "high" if message[1] in high.shard_ids else "low"
                    )
                    worker.finish(message[1], message[2])
                assert order == ["high", "high", "low", "low"]
            finally:
                worker.close()
                low.close()
                high.close()

    def test_status_reports_per_client_counters(self):
        """The STATUS document's ``clients`` section carries the
        per-tenant share/quota counters; job records name their
        tenant."""
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            a = ServiceClient("127.0.0.1", daemon.port, tenant="alpha")
            handle = a.submit([[("x", 0)], [("x", 1)]], label="mine")
            try:
                doc = a.status_full()
                (job,) = doc["jobs"]
                assert job["client"] == "alpha"
                (record,) = doc["clients"]
                assert record["client"] == "alpha"
                assert record["jobs_submitted"] == 1
                assert record["queued_shards"] == 2
                assert record["active_jobs"] == 1
                assert record["rejected"] == 0
                assert doc["pool"]["queued_shards"] == 2
                assert doc["pool"]["workers"] == 0
            finally:
                a.cancel(handle.job_id)
                handle.close()

    def test_status_from_never_submitting_client_under_load(self):
        """A monitoring client that never submits sees the full
        document while another tenant's backlog is queued."""
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            flooder = ServiceClient("127.0.0.1", daemon.port, tenant="flood")
            handle = flooder.submit([[("f", i)] for i in range(8)])
            try:
                watcher = ServiceClient(
                    "127.0.0.1", daemon.port, tenant="watcher"
                )
                doc = watcher.status_full()
                assert doc["pool"]["queued_shards"] == 8
                assert [r["client"] for r in doc["clients"]] == ["flood"]
                assert doc["jobs"][0]["state"] == "queued"
                # plain status() stays the job-record list
                assert watcher.status()[0]["job"] == handle.job_id
            finally:
                flooder.cancel(handle.job_id)
                handle.close()


class TestAdmission:
    def test_over_quota_jobs_rejected_until_capacity_frees(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, max_client_jobs=1
        ) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port, tenant="greedy")
            first = client.submit([[("a", 0)]])
            with pytest.raises(ServiceError, match="submission rejected"):
                client.submit([[("b", 0)]])
            (record,) = client.status_full()["clients"]
            assert record["rejected"] == 1
            assert client.cancel(first.job_id) is True
            first.close()
            second = client.submit([[("c", 0)]])  # capacity freed
            client.cancel(second.job_id)
            second.close()

    def test_queued_shard_quota_counts_the_submission_itself(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, max_client_queued=2
        ) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port, tenant="bulk")
            with pytest.raises(ServiceError, match="submission rejected"):
                client.submit([[("x", i)] for i in range(3)])
            ok = client.submit([[("x", i)] for i in range(2)])
            with pytest.raises(ServiceError, match="submission rejected"):
                client.submit([[("y", 0)]])  # 2 queued + 1 > 2
            client.cancel(ok.job_id)
            ok.close()

    def test_quota_is_per_tenant_not_global(self):
        """One tenant at its quota never blocks another tenant."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, max_client_jobs=1
        ) as daemon:
            greedy = ServiceClient("127.0.0.1", daemon.port, tenant="greedy")
            other = ServiceClient("127.0.0.1", daemon.port, tenant="other")
            held = greedy.submit([[("a", 0)]])
            with pytest.raises(ServiceError, match="submission rejected"):
                greedy.submit([[("b", 0)]])
            admitted = other.submit([[("c", 0)]])  # different bucket
            for client, handle in ((greedy, held), (other, admitted)):
                client.cancel(handle.job_id)
                handle.close()

    def test_shared_tenant_name_shares_one_bucket(self):
        """Two connections declaring the same tenant share its quota."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, max_client_jobs=1
        ) as daemon:
            one = ServiceClient("127.0.0.1", daemon.port, tenant="team")
            two = ServiceClient("127.0.0.1", daemon.port, tenant="team")
            held = one.submit([[("a", 0)]])
            with pytest.raises(ServiceError, match="submission rejected"):
                two.submit([[("b", 0)]])
            one.cancel(held.job_id)
            held.close()

    def test_rejected_wire_constant_is_current(self):
        assert REJECTED == "rejected_submit"
        assert PROTOCOL_VERSION == 6


class TestShutdownWithQueue:
    def test_daemon_close_with_multi_tenant_backlog(self):
        """Closing a daemon whose fair-share queue is non-empty (two
        tenants, several jobs, zero workers) fails every open job and
        returns promptly."""
        daemon = ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0)
        a = ServiceClient("127.0.0.1", daemon.port, tenant="alpha")
        b = ServiceClient("127.0.0.1", daemon.port, tenant="beta")
        handles = [
            a.submit([[("a", i)] for i in range(3)]),
            b.submit([[("b", 0)]]),
            a.submit([[("c", 0)], [("c", 1)]]),
        ]
        start = time.monotonic()
        daemon.close()
        assert time.monotonic() - start < 20
        for handle in handles:
            with pytest.raises(ServiceError, match="shut down|closed|lost"):
                list(handle.results())
            handle.close()


# ----------------------------------------------------------------------
# Autoscaler control loop (fakes; no sockets, no subprocesses)
# ----------------------------------------------------------------------
class _FakeCoordinator:
    def __init__(self):
        self.snap = dict(
            workers=0,
            busy=0,
            draining=0,
            queued_shards=0,
            inflight_shards=0,
            live_jobs=0,
        )
        self.address = ("127.0.0.1", 12345)
        self.drain_calls: list[int] = []

    def load_snapshot(self) -> dict:
        return dict(self.snap)

    async def drain_workers(self, count: int) -> int:
        self.drain_calls.append(count)
        self.snap["workers"] -= count
        return count


class _RecordingSpawner:
    def __init__(self):
        self.spawned: list[tuple[str, int]] = []

    def spawn(self, host: str, port: int) -> None:
        self.spawned.append((host, port))

    def reap(self) -> int:
        return len(self.spawned)

    def close(self) -> None:
        pass


def _tick(scaler: Autoscaler, times: int = 1) -> None:
    async def run() -> None:
        for _ in range(times):
            await scaler._tick()

    asyncio.run(run())


class TestAutoscalerLoop:
    def test_scales_to_backlog_capped_at_max(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(coord, spawner, min_workers=0, max_workers=3)
        coord.snap["queued_shards"] = 10
        _tick(scaler)
        assert len(spawner.spawned) == 3
        assert spawner.spawned[0] == ("127.0.0.1", 12345)
        assert scaler.stats()["pending_spawns"] == 3

    def test_pending_spawns_prevent_double_spawning(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(coord, spawner, min_workers=0, max_workers=4)
        coord.snap["queued_shards"] = 2
        _tick(scaler, times=3)  # workers have not connected yet
        assert len(spawner.spawned) == 2  # not 6

    def test_connected_workers_consume_the_pending_ledger(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(coord, spawner, min_workers=0, max_workers=4)
        coord.snap["queued_shards"] = 2
        _tick(scaler)
        coord.snap.update(workers=2, busy=2, queued_shards=0, inflight_shards=2)
        _tick(scaler)
        assert scaler.stats()["pending_spawns"] == 0
        assert len(spawner.spawned) == 2  # demand met, no extra spawn

    def test_expired_spawns_are_written_off_and_retried(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            spawn_timeout=0.01, backoff_base=0.02, backoff_max=0.02,
        )
        coord.snap["queued_shards"] = 1
        _tick(scaler)
        assert len(spawner.spawned) == 1
        time.sleep(0.05)  # the spawn never produced a worker
        _tick(scaler)  # written off; a brief respawn backoff starts
        assert scaler.stats()["pending_spawns"] == 0
        time.sleep(0.05)
        _tick(scaler)  # backoff elapsed
        assert scaler.stats()["spawned_total"] == 2  # retried

    def test_min_workers_floor_spawns_without_load(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(coord, spawner, min_workers=2, max_workers=4)
        _tick(scaler)
        assert len(spawner.spawned) == 2

    def test_idle_pool_drains_to_the_floor_after_grace(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=1, max_workers=4, idle_grace=0.0
        )
        coord.snap.update(workers=3)
        _tick(scaler)  # starts the idle clock
        assert coord.drain_calls == []
        _tick(scaler)  # grace elapsed
        assert coord.drain_calls == [2]
        assert scaler.stats()["drained_total"] == 2

    def test_load_resets_the_idle_clock(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=4, idle_grace=0.0
        )
        coord.snap.update(workers=2)
        _tick(scaler)
        coord.snap.update(busy=1, inflight_shards=1)  # work arrived
        _tick(scaler)
        assert coord.drain_calls == []

    def test_busy_workers_are_never_drained(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=4, idle_grace=0.0
        )
        coord.snap.update(workers=2, busy=1, inflight_shards=3)
        _tick(scaler, times=3)
        assert coord.drain_calls == []

    def test_failed_ticks_are_counted_and_the_loop_keeps_ticking(self):
        """A spawn command whose binary does not exist raises on every
        tick: each failure counts under tick_errors (with the message
        in last_tick_error), and the control loop keeps running."""
        coord = _FakeCoordinator()
        spawner = ExecSpawner("/nonexistent/repro-worker --connect {address}")
        scaler = Autoscaler(
            coord, spawner, min_workers=1, max_workers=2, interval=0.01
        )
        assert scaler.stats()["tick_errors"] == 0
        assert scaler.stats()["last_tick_error"] is None

        async def run() -> bool:
            await scaler.start()
            deadline = time.monotonic() + 10
            while scaler.stats()["tick_errors"] < 3:
                assert time.monotonic() < deadline, scaler.stats()
                await asyncio.sleep(0.01)
            alive = not scaler._task.done()
            await scaler.aclose()
            return alive

        assert asyncio.run(run())
        stats = scaler.stats()
        assert stats["tick_errors"] >= 3
        assert stats["last_tick_error"].startswith("FileNotFoundError")
        assert stats["spawned_total"] == 0

    def test_bounds_validation(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        with pytest.raises(ValueError, match="min_workers"):
            Autoscaler(coord, spawner, min_workers=-1)
        with pytest.raises(ValueError, match="max_workers"):
            Autoscaler(coord, spawner, min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="backlog_per_worker"):
            Autoscaler(coord, spawner, backlog_per_worker=0)
        with pytest.raises(ValueError, match="queue_age_threshold"):
            Autoscaler(coord, spawner, queue_age_threshold=-1)
        with pytest.raises(ValueError, match="backoff"):
            Autoscaler(coord, spawner, backoff_base=0)
        with pytest.raises(ValueError, match="backoff"):
            Autoscaler(coord, spawner, backoff_base=5, backoff_max=1)


class TestQueueAgeTrigger:
    def _loaded(self, age: float):
        """A pool the depth formula is happy with, one aged queued shard."""
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        coord.snap.update(
            workers=2,
            busy=1,
            queued_shards=1,
            inflight_shards=1,
            oldest_queued_age=age,
        )
        return coord, spawner

    def test_aged_queue_provisions_an_extra_worker(self):
        coord, spawner = self._loaded(age=15.0)
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=4,
            queue_age_threshold=10.0,
        )
        _tick(scaler)
        assert len(spawner.spawned) == 1  # latency, not depth, asked for it

    def test_fresh_queue_stays_with_the_depth_formula(self):
        coord, spawner = self._loaded(age=3.0)
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=4,
            queue_age_threshold=10.0,
        )
        _tick(scaler)
        assert spawner.spawned == []

    def test_zero_threshold_disables_the_trigger(self):
        coord, spawner = self._loaded(age=1e9)
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=4,
            queue_age_threshold=0.0,
        )
        _tick(scaler)
        assert spawner.spawned == []

    def test_age_trigger_respects_max_workers(self):
        coord, spawner = self._loaded(age=60.0)
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            queue_age_threshold=10.0,
        )
        _tick(scaler, times=3)
        assert spawner.spawned == []  # pool already at the ceiling

    def test_one_extra_per_tick_not_per_shard(self):
        coord, spawner = self._loaded(age=60.0)
        coord.snap["queued_shards"] = 5
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=10,
            backlog_per_worker=100, queue_age_threshold=10.0,
        )
        _tick(scaler)
        # depth demand is busy+1 = 2 (provisioned), the trigger adds 1
        assert len(spawner.spawned) == 1


class TestSpawnBackoff:
    def test_expired_spawn_backs_off_the_retry(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            spawn_timeout=0.01, backoff_base=30.0, backoff_max=60.0,
        )
        coord.snap["queued_shards"] = 1
        _tick(scaler)
        assert len(spawner.spawned) == 1
        time.sleep(0.05)  # the spawn never produced a worker
        _tick(scaler)
        assert len(spawner.spawned) == 1  # held back, not respawned
        stats = scaler.stats()
        assert stats["spawn_failures"] == 1
        assert stats["spawn_backoff_remaining"] > 0

    def test_backoff_expiry_allows_the_retry(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            spawn_timeout=0.01, backoff_base=0.02, backoff_max=0.02,
        )
        coord.snap["queued_shards"] = 1
        _tick(scaler)
        time.sleep(0.05)
        _tick(scaler)  # writes off the spawn, enters backoff
        assert len(spawner.spawned) == 1
        time.sleep(0.05)
        _tick(scaler)  # backoff elapsed
        assert len(spawner.spawned) == 2

    def test_consecutive_failures_escalate(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            spawn_timeout=0.01, backoff_base=0.02, backoff_max=0.02,
        )
        coord.snap["queued_shards"] = 1
        for _ in range(2):
            _tick(scaler)  # spawn (or respawn after backoff)
            time.sleep(0.05)
            _tick(scaler)  # write-off
            time.sleep(0.05)
        assert scaler.stats()["spawn_failures"] == 2

    def test_early_worker_death_triggers_backoff(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            backoff_base=30.0, backoff_max=60.0,
        )
        coord.snap.update(queued_shards=1, worker_early_deaths=1)
        _tick(scaler)
        # the crash was counted before the spawn decision: held back
        assert spawner.spawned == []
        assert scaler.stats()["spawn_failures"] == 1

    def test_completed_shard_resets_the_backoff(self):
        coord, spawner = _FakeCoordinator(), _RecordingSpawner()
        scaler = Autoscaler(
            coord, spawner, min_workers=0, max_workers=2,
            backoff_base=30.0, backoff_max=60.0,
        )
        coord.snap.update(queued_shards=1, worker_early_deaths=1)
        _tick(scaler)
        assert spawner.spawned == []  # backing off
        coord.snap.update(completed_shards=3)  # the pool made progress
        _tick(scaler)
        assert len(spawner.spawned) == 1
        stats = scaler.stats()
        assert stats["spawn_failures"] == 0
        assert stats["spawn_backoff_remaining"] == 0.0


class TestSpawners:
    def test_local_spawner_argv_and_env(self):
        spawner = LocalSpawner(
            backend_spec="process:2",
            secret="hush",
            tls_ca="/tmp/ca.pem",
        )
        args, env = spawner._build("0.0.0.0", 7077)
        assert args[:4] == [sys.executable, "-m", "repro.experiments", "work"]
        assert "127.0.0.1:7077" in args  # loopback, not the bind host
        assert "--backend" in args and "process:2" in args
        assert "--tls-ca" in args and "/tmp/ca.pem" in args
        # the secret travels via the environment, never argv
        assert "hush" not in args
        assert env[SECRET_ENV] == "hush"

    def test_exec_spawner_formats_the_template(self):
        spawner = ExecSpawner("ssh pool repro-worker --connect {address}")
        args, env = spawner._build("head", 7077)
        assert args == ["ssh", "pool", "repro-worker", "--connect", "head:7077"]
        assert env is None
        with pytest.raises(ValueError):
            ExecSpawner("   ")

    def test_reap_and_close_tolerate_no_processes(self):
        spawner = LocalSpawner()
        assert spawner.reap() == 0
        spawner.close()


# ----------------------------------------------------------------------
# TLS transport
# ----------------------------------------------------------------------
class TestTLS:
    def test_context_helpers(self, tls_files):
        cert, key = tls_files
        server = server_tls_context(cert, key)
        client = client_tls_context(cert)
        assert server.minimum_version.name == "TLSv1_2"
        assert client.check_hostname is False

    def test_resolve_tls_env_fallbacks(self, monkeypatch):
        for env in (TLS_CERT_ENV, TLS_KEY_ENV, TLS_CA_ENV):
            monkeypatch.delenv(env, raising=False)
        assert resolve_tls() == (None, None, None)
        monkeypatch.setenv(TLS_CERT_ENV, "c.pem")
        monkeypatch.setenv(TLS_KEY_ENV, "k.pem")
        assert resolve_tls() == ("c.pem", "k.pem", None)
        assert resolve_tls(cert="mine.pem") == ("mine.pem", "k.pem", None)
        monkeypatch.setenv(TLS_CERT_ENV, "")  # empty means off
        assert resolve_tls() == (None, "k.pem", None)

    def test_status_roundtrip_over_tls(self, tls_files):
        cert, key = tls_files
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, tls_cert=cert, tls_key=key
        ) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port, tls_ca=cert)
            assert client.status() == []

    def test_cleartext_client_rejected_by_tls_daemon(self, tls_files):
        cert, key = tls_files
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, tls_cert=cert, tls_key=key
        ) as daemon:
            with pytest.raises(ServiceError):
                ServiceClient(
                    "127.0.0.1", daemon.port, connect_timeout=3.0
                ).status()

    def test_wrong_trust_root_rejected(self, tls_files, tmp_path):
        cert, key = tls_files
        other_cert, _ = make_cert(tmp_path, "other")
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, tls_cert=cert, tls_key=key
        ) as daemon:
            with pytest.raises(ServiceError, match="cannot reach|handshake"):
                ServiceClient(
                    "127.0.0.1",
                    daemon.port,
                    tls_ca=other_cert,
                    connect_timeout=3.0,
                ).status()


    def test_mutual_tls_refuses_local_autoscaled_workers(self, tls_pki):
        """Locally spawned workers present no client certificate, so a
        mutual-TLS daemon could never grow its pool: refuse up front."""
        cert, key = tls_pki["daemon"]
        with pytest.raises(ValueError, match="--spawn-command"):
            ServiceDaemon(
                "127.0.0.1",
                0,
                min_workers=1,
                max_workers=1,
                tls_cert=cert,
                tls_key=key,
                tls_ca=tls_pki["client_ca"],
            )
        # A spawn command can pass `work --tls-cert/--tls-key`: allowed.
        with ServiceDaemon(
            "127.0.0.1",
            0,
            max_workers=1,
            spawn_command="true",
            tls_cert=cert,
            tls_key=key,
            tls_ca=tls_pki["client_ca"],
        ) as daemon:
            assert daemon.num_workers == 0

    def test_cli_mutual_tls_autoscale_is_a_usage_error(self, tls_pki, capsys):
        from repro.experiments.__main__ import main as experiments_main

        cert, key = tls_pki["daemon"]
        argv = ["serve-jobs", "--bind", "127.0.0.1:0", "--autoscale"]
        tls = ["--tls-cert", cert, "--tls-key", key]
        with pytest.raises(SystemExit) as excinfo:
            experiments_main([*argv, *tls, "--tls-ca", tls_pki["client_ca"]])
        assert excinfo.value.code == 2
        assert "--spawn-command" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The elastic end-to-end: scale up from zero, serve, drain — over TLS
# ----------------------------------------------------------------------
class TestElasticEndToEnd:
    def test_scale_up_serve_and_drain_over_tls(self, tls_files, serial_results):
        """Acceptance: a daemon started with zero workers autoscales up
        under load, serves a sweep byte-identical to serial, and drains
        the pool back to zero — every connection over TLS."""
        cert, key = tls_files
        with ServiceDaemon(
            "127.0.0.1",
            0,
            heartbeat_timeout=30.0,
            min_workers=0,
            max_workers=2,
            idle_grace=1.0,
            tls_cert=cert,
            tls_key=key,
        ) as daemon:
            assert daemon.num_workers == 0
            with ServiceBackend(
                "127.0.0.1", daemon.port, tls_ca=cert, tenant="e2e"
            ) as backend:
                results = backend.evaluate_batch(_requests())
            assert list(map(_signature, results)) == list(
                map(_signature, serial_results)
            )
            doc = daemon.status()
            assert doc["pool"]["autoscale"] is True
            assert doc["pool"]["spawned_total"] >= 2  # scaled up under load
            assert doc["clients"][0]["client"] == "e2e"
            # ... and back down: the pool drains to the floor of zero.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if daemon.num_workers == 0 and daemon.status()["pool"][
                    "drained_total"
                ] >= 2:
                    break
                time.sleep(0.2)
            else:  # pragma: no cover - failure renders the pool state
                pytest.fail(f"pool never drained: {daemon.status()['pool']}")
