"""The multi-tenant service tier: fair share, admission, TLS.

Covers the acceptance criteria of the multi-tenant tier: a flooding
tenant's shards interleave with — rather than starve — another
tenant's single job; per-client admission quotas answer over-quota
submissions with a clean ``REJECTED``; and the daemon survives shutdown
with a non-empty multi-tenant queue.  Plus the TLS context helpers and
TLS daemons against cleartext and wrongly trusting clients.
"""

from __future__ import annotations

import time

import pytest

from repro import (
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)
from repro.engine.cluster.protocol import (
    PROTOCOL_VERSION,
    REJECTED,
    TLS_CA_ENV,
    TLS_CERT_ENV,
    TLS_KEY_ENV,
    client_tls_context,
    resolve_tls,
    server_tls_context,
)

from .conftest import make_cert
from .test_service import _FakeServiceWorker


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
                a.close()
                b.close()

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
                client.close()

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
                a.close()

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
                watcher.close()
            finally:
                flooder.cancel(handle.job_id)
                handle.close()
                flooder.close()


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
            client.close()

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
            client.close()

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
                client.close()

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
            one.close()
            two.close()

    def test_rejected_wire_constant_is_current(self):
        assert REJECTED == "rejected_submit"
        assert PROTOCOL_VERSION == 7


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
        a.close()
        b.close()


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
            with ServiceClient("127.0.0.1", daemon.port, tls_ca=cert) as client:
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
