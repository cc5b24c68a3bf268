"""The standing sweep service: daemon, job lifecycle, service backend.

Covers the acceptance criteria of the service tier: two clients
submitting sweeps concurrently to one daemon (a real subprocess, with a
real worker subprocess) both receive results byte-identical to serial
``evaluate_batch``; a higher-priority job's shards are scheduled ahead
of a lower-priority job's remaining shards; cancelling one job does not
disturb the other.  Also: the shared-secret handshake on worker and
client connections, worker reconnect after a coordinator restart,
``run_stream`` ordering/early-exit across serial, process and service
backends, the ``submit``/``status``/``cancel``/``cache`` CLI verbs and
the loopback bind guard of ``serve-jobs``; and an in-process
:class:`ServiceDaemon` with a :class:`ServiceBackend` submitting to it
(STATUS and METRICS on its port, TLS, the result store).
"""

from __future__ import annotations

import json
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import (
    CartesianGrid,
    EvaluationEngine,
    InstanceSpec,
    ProcessBackend,
    ServiceBackend,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    SweepSpec,
    nearest_neighbor,
    resolve_backend,
    run,
    run_stream,
)
from repro.engine import Backend, DiskStore
from repro.engine.cluster.protocol import (
    AUTH,
    CANCEL_REPLY,
    CHALLENGE,
    FAIL,
    GET,
    HELLO,
    MAGIC,
    METRICS_REPLY,
    SECRET_ENV,
    SHARD,
    SHUTDOWN,
    STATUS_REPLY,
    REJECT,
    RESULT,
    TLS_CERT_ENV,
    WELCOME,
    auth_digest,
    encode_message,
    hello,
    recv_message,
    resolve_secret,
    send_message,
)
from repro.engine import diskcache
from repro.engine.cluster import coordinator
from repro.engine.cluster.worker import _result_rows, run_worker
from repro.engine.diskcache import cell_key, decode_cell, encode_cell
from repro.engine.metrics import register_metric
from repro.service import client as service_client
from repro.service import parse_service_spec

from .test_backends import _requests, _signature, _weighted_requests
from .test_cluster import _spawn_worker, _worker_env
from .test_diskcache import _FullDisk


@pytest.fixture(scope="module")
def serial_results():
    return EvaluationEngine(max_workers=1).evaluate_batch(_requests())


def _spawn_daemon(*extra: str, **popen) -> tuple[subprocess.Popen, int]:
    """A serve-jobs daemon subprocess; returns it plus its bound port."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve-jobs",
            "--bind",
            "127.0.0.1:0",
            *extra,
        ],
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **popen,
    )
    deadline = time.monotonic() + 60
    while True:
        line = proc.stdout.readline()
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return proc, port
        if not line or time.monotonic() > deadline:  # pragma: no cover
            proc.kill()
            raise RuntimeError(f"daemon did not come up: {line!r}")


def _stop_daemon(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=30)
    proc.stdout.close()
    return code


@pytest.fixture(scope="module")
def service():
    """One daemon subprocess plus one real (serial) worker subprocess."""
    daemon, port = _spawn_daemon()
    worker = _spawn_worker(port)
    yield port
    assert _stop_daemon(daemon) == 0
    assert worker.wait(timeout=30) == 0  # SHUTDOWN reached the worker


class _FakeServiceWorker:
    """A hand-driven worker for deterministic scheduling assertions."""

    def __init__(self, port: int, secret: str | None = None):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        send_message(self.sock, hello({"fake": True}))
        reply = recv_message(self.sock)
        if reply is not None and reply[0] == CHALLENGE:
            send_message(self.sock, (AUTH, auth_digest(secret or "", reply[1])))
            reply = recv_message(self.sock)
        assert reply is not None and reply[0] == WELCOME, reply

    def pull(self) -> tuple:
        send_message(self.sock, (GET,))
        message = recv_message(self.sock)
        assert message is not None and message[0] == SHARD, message
        return message

    def finish(self, shard_id: int, items: list) -> None:
        """Answer every item with an error cell reading ``payload-<shard>``."""
        cell = encode_cell((None, None, f"payload-{shard_id}", {}))
        send_message(
            self.sock, (RESULT, shard_id, [(i, cell) for i in range(len(items))])
        )

    def close(self) -> None:
        self.sock.close()


def _count_connects(monkeypatch) -> list:
    """One entry per connection a :class:`ServiceClient` opens."""
    opened: list = []
    connect = service_client.connect_with_retry

    def counting(*args, **kwargs):
        opened.append(args[:2])
        return connect(*args, **kwargs)

    monkeypatch.setattr(service_client, "connect_with_retry", counting)
    return opened


def _wait_for_gets(daemon: ServiceDaemon, count: int) -> None:
    """Block until *count* workers' GETs wait on the daemon's queue."""
    deadline = time.monotonic() + 10
    waiting = daemon._coordinator._waiting
    while daemon._snapshot(len, waiting) < count:
        assert time.monotonic() < deadline, "the GETs never reached the daemon"
        time.sleep(0.01)


# ----------------------------------------------------------------------
# The service backend against a real daemon + worker (subprocesses)
# ----------------------------------------------------------------------
class TestServiceBackend:
    def test_satisfies_protocol(self):
        backend = ServiceBackend("127.0.0.1", 1)  # constructing never connects
        assert isinstance(backend, Backend)
        backend.close()

    def test_batch_byte_identical_to_serial(self, service, serial_results):
        with ServiceBackend("127.0.0.1", service) as backend:
            results = backend.evaluate_batch(_requests())
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )

    def test_stream_byte_identical_to_serial(self, service, serial_results):
        with ServiceBackend("127.0.0.1", service) as backend:
            streamed = list(backend.evaluate_stream(_requests()))
        assert sorted(map(_signature, streamed)) == sorted(
            map(_signature, serial_results)
        )

    def test_results_keep_original_requests_and_tags(self, service):
        marker = object()  # unpicklable payloads must never cross the wire
        requests = _requests(tagger=lambda i, name: (i, name, marker))
        with ServiceBackend("127.0.0.1", service) as backend:
            results = backend.evaluate_batch(requests)
        assert all(r.request is req for r, req in zip(results, requests))
        assert all(r.request.tag[2] is marker for r in results)

    def test_result_buffers_are_read_only(self, service):
        with ServiceBackend("127.0.0.1", service) as backend:
            (result,) = backend.evaluate_batch(_requests()[:1])
        for arr in (result.perm, result.cost.per_node):
            with pytest.raises(ValueError):
                arr[0] = -1

    def test_empty_batch(self, service):
        with ServiceBackend("127.0.0.1", service) as backend:
            assert backend.evaluate_batch([]) == []

    def test_two_concurrent_clients_byte_identical(
        self, service, serial_results
    ):
        """Acceptance: two clients, one daemon, both sweeps byte-exact."""
        boxes: list[dict] = [{}, {}]

        def client(box: dict, priority: int) -> None:
            try:
                with ServiceBackend(
                    "127.0.0.1", service, priority=priority
                ) as backend:
                    box["results"] = backend.evaluate_batch(_requests())
            except Exception as exc:  # pragma: no cover - surfaced below
                box["error"] = exc

        threads = [
            threading.Thread(target=client, args=(boxes[0], 0)),
            threading.Thread(target=client, args=(boxes[1], 5)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not any(t.is_alive() for t in threads)
        assert not any("error" in box for box in boxes), boxes
        for box in boxes:
            assert list(map(_signature, box["results"])) == list(
                map(_signature, serial_results)
            )

    def test_a_backend_keeps_one_connection_across_sweeps(
        self, service, monkeypatch
    ):
        """Two sweeps on one backend share one connection and handshake,
        with rows equal to serial; closing the backend closes it."""
        spec = _stream_spec()
        serial = run(spec).to_rows()
        opened = _count_connects(monkeypatch)
        with ServiceBackend("127.0.0.1", service) as backend:
            first = run(spec, backend).to_rows()
            second = run(spec, backend).to_rows()
            (kept,) = backend.client._idle
        assert kept.sock.fileno() == -1  # ServiceBackend.close closed it
        assert len(opened) == 1
        assert first == serial and second == serial

    def test_sweep_api_through_spec_string(self, service):
        """resolve_backend("service:...") drops into repro.run unchanged."""
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(4, 8)],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane"],
        )
        local = run(spec).to_rows()
        remote = run(spec, backend=f"service:127.0.0.1:{service}").to_rows()
        assert remote == local

    def test_weighted_metric_byte_identical_to_serial(self, service):
        from .test_backends import _weighted_requests

        with EvaluationEngine(max_workers=1) as engine:
            serial = engine.evaluate_batch(_weighted_requests())
        with ServiceBackend("127.0.0.1", service) as backend:
            results = backend.evaluate_batch(_weighted_requests())
        assert list(map(_signature, results)) == list(map(_signature, serial))
        assert any(r.metrics for r in results)


# ----------------------------------------------------------------------
# Job lifecycle against a real daemon subprocess, hand-driven worker
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def job_daemon():
    """A daemon subprocess with no real workers (tests drive their own)."""
    daemon, port = _spawn_daemon()
    yield port
    assert _stop_daemon(daemon) == 0


class TestJobLifecycle:
    def test_priority_ahead_of_remaining_shards(self, job_daemon):
        """Acceptance: a later, higher-priority job's shards are handed
        to workers before the earlier job's remaining shards."""
        client = ServiceClient("127.0.0.1", job_daemon)
        worker = _FakeServiceWorker(job_daemon)
        low = client.submit(
            [[("low", i)] for i in range(3)], priority=0, label="low"
        )
        high = None
        try:
            first = worker.pull()  # holds one low shard mid-"evaluation"
            assert first[1] in low.shard_ids
            high = client.submit(
                [[("high", i)] for i in range(2)], priority=5, label="high"
            )
            order = []
            for _ in range(4):
                message = worker.pull()
                order.append("high" if message[1] in high.shard_ids else "low")
                worker.finish(message[1], message[2])
            worker.finish(first[1], first[2])
            assert order == ["high", "high", "low", "low"]
            assert len(list(high.results())) == 2
            assert len(list(low.results())) == 3
        finally:
            worker.close()
            low.close()
            if high is not None:
                high.close()
            client.close()

    def test_cancel_one_job_leaves_the_other(self, job_daemon):
        """Acceptance: cancelling one job does not disturb the other."""
        client = ServiceClient("127.0.0.1", job_daemon)
        worker = _FakeServiceWorker(job_daemon)
        doomed = client.submit([[("doomed", i)] for i in range(2)], label="doomed")
        kept = client.submit([[("kept", 0)]], label="kept")
        try:
            assert client.cancel(doomed.job_id) is True
            # The worker only ever sees the surviving job's shard.
            message = worker.pull()
            assert message[1] in kept.shard_ids
            worker.finish(message[1], message[2])
            assert len(list(kept.results())) == 1
            with pytest.raises(ServiceError, match="cancelled"):
                list(doomed.results())
            states = {r["job"]: r["state"] for r in client.status()}
            assert states[doomed.job_id] == "cancelled"
            assert states[kept.job_id] == "done"
        finally:
            worker.close()
            doomed.close()
            kept.close()
            client.close()

    def test_a_one_get_at_a_time_worker_completes_a_job(self, job_daemon):
        """A worker that asks for a shard only once it is idle (as
        workers did before asking ahead) is still served every shard."""
        worker = _FakeServiceWorker(job_daemon)
        with ServiceClient("127.0.0.1", job_daemon) as client:
            with client.submit([[("serial", i)] for i in range(3)]) as handle:
                try:
                    for _ in range(3):
                        message = worker.pull()
                        worker.finish(message[1], message[2])
                finally:
                    worker.close()
                got = sorted(shard_id for shard_id, _ in handle.results())
        assert got == sorted(handle.shard_ids)

    def test_cancel_unknown_job_is_false(self, job_daemon):
        with ServiceClient("127.0.0.1", job_daemon) as client:
            assert client.cancel("job-999999") is False

    def test_status_single_job_and_fields(self, job_daemon):
        client = ServiceClient("127.0.0.1", job_daemon)
        handle = client.submit([[("s", 0)]], priority=3, label="fields")
        try:
            (record,) = client.status(handle.job_id)
            assert record["state"] == "queued"  # no worker pulled it yet
            assert record["priority"] == 3
            assert record["label"] == "fields"
            assert record["shards"] == 1
            assert record["completed"] == 0
            assert record["submitted_at"] > 0
            assert record["age"] >= 0.0  # monotonic queue age
            assert client.status("job-999999") == []
        finally:
            assert client.cancel(handle.job_id) is True
            handle.close()
            client.close()

    def test_empty_job_is_done_immediately(self, job_daemon):
        with ServiceClient("127.0.0.1", job_daemon) as client:
            with client.submit([]) as handle:
                assert handle.shard_ids == []
                assert list(handle.results()) == []
            (record,) = client.status(handle.job_id)
        assert record["state"] == "done"


class TestDaemonLifecycle:
    def test_client_disconnect_cancels_its_jobs(self):
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=2.0) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)
            handle = client.submit([[("x", 0)]], label="abandoned")
            handle.close()  # walk away without draining
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                (record,) = daemon.jobs(handle.job_id)
                if record["state"] == "cancelled":
                    break
                time.sleep(0.1)
            assert record["state"] == "cancelled"
            # the daemon is unharmed: a fresh job still completes
            worker = _FakeServiceWorker(daemon.port)
            fresh = client.submit([[("y", 0)]])
            message = worker.pull()
            worker.finish(message[1], message[2])
            assert len(list(fresh.results())) == 1
            worker.close()
            fresh.close()
            client.close()

    def test_an_undrained_handle_is_not_reused(self, monkeypatch):
        """A handle closed before JOB_DONE closes its connection, which
        cancels its job; the next operation connects afresh."""
        opened = _count_connects(monkeypatch)
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            handle = client.submit([[("x", 0)]], label="abandoned")
            handle.close()
            deadline = time.monotonic() + 20
            while client.status(handle.job_id)[0]["state"] != "cancelled":
                assert time.monotonic() < deadline, "the job was not cancelled"
                time.sleep(0.05)
        assert len(opened) == 2  # the job's, then the status calls' one

    def test_a_restarted_daemon_gets_a_fresh_connection(self, monkeypatch):
        """A kept connection to a daemon that has since restarted is
        noticed before use: the next submit connects anew and runs."""
        opened = _count_connects(monkeypatch)
        first = ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=6.0)
        client = ServiceClient("127.0.0.1", first.port)
        try:
            assert client.status() == []  # its connection is kept
            first.close()
            with ServiceDaemon(
                "127.0.0.1", first.port, heartbeat_timeout=6.0
            ) as second:
                worker = _FakeServiceWorker(second.port)
                try:
                    handle = client.submit([[("y", 0)]])
                    message = worker.pull()
                    worker.finish(message[1], message[2])
                    assert len(list(handle.results())) == 1
                finally:
                    worker.close()
        finally:
            client.close()
            first.close()
        assert len(opened) == 2

    def test_an_idle_connection_past_the_heartbeat_interval_is_replaced(
        self, monkeypatch
    ):
        """The daemon drops a client silent for three heartbeat
        intervals; the client reuses a connection idle for less than
        one, and replaces an older one."""
        opened = _count_connects(monkeypatch)
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            client.status()
            (kept,) = client._idle
            assert kept.interval == 2.0  # as WELCOME announced it
            client.status()
            assert len(opened) == 1
            kept.idle_since -= kept.interval  # as if idle for one interval
            client.status()
            assert kept.sock.fileno() == -1  # closed, not leaked
        assert len(opened) == 2

    def test_daemon_close_fails_open_jobs(self):
        daemon = ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=6.0)
        client = ServiceClient("127.0.0.1", daemon.port)
        handle = client.submit([[("x", 0)]], label="orphaned")
        daemon.close()
        with pytest.raises(ServiceError, match="shut down|closed|lost"):
            list(handle.results())
        handle.close()
        client.close()

    def test_wait_for_workers_timeout(self):
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=6.0) as daemon:
            with pytest.raises(TimeoutError):
                daemon.wait_for_workers(1, timeout=0.2)


# ----------------------------------------------------------------------
# An in-process daemon, a backend on its port, and every service client
# ----------------------------------------------------------------------
class TestInProcessDaemon:
    def test_status_and_metrics_list_the_backends_own_job(self):
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=6.0) as daemon:
            worker = _spawn_worker(daemon.port)
            daemon.wait_for_workers(1, timeout=60)
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                backend.evaluate_batch(_requests())
            with ServiceClient("127.0.0.1", daemon.port) as client:
                status = client.status_full()
                metrics = client.metrics()
        (job,) = status["jobs"]
        assert job["state"] == "done" and job["shards"] > 0
        assert status["pool"]["workers"] == 1
        assert metrics["schema"] == "repro.metrics/v1"
        assert [r["job"] for r in metrics["jobs"]] == [job["job"]]
        assert metrics["store"]["enabled"] is False
        assert worker.wait(timeout=30) == 0

    def test_close_does_not_wait_on_an_idle_tls_client(self, tls_files):
        """An idle kept TLS connection has nobody reading it to answer a
        TLS close; the daemon aborts it instead of waiting for it."""
        cert, key = tls_files
        daemon = ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, tls_cert=cert, tls_key=key
        )
        with ServiceClient("127.0.0.1", daemon.port, tls_ca=cert) as client:
            try:
                assert client.status() == []  # its connection stays, idle
            finally:
                start = time.monotonic()
                daemon.close()
                elapsed = time.monotonic() - start
        assert elapsed < 2.0

    def test_failed_tls_handshakes_hold_up_nothing(self, tls_files):
        """A peer whose TLS handshake times out is closed uncounted, one
        speaking cleartext counts under ``protocol_errors``, and neither
        connection holds up the daemon's close."""
        cert, key = tls_files
        daemon = ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=2.0, tls_cert=cert, tls_key=key
        )
        try:
            for payload in (b"", b"\0" * 64):
                with socket.create_connection(
                    ("127.0.0.1", daemon.port), timeout=10
                ) as peer:
                    peer.sendall(payload)
                    try:
                        assert peer.recv(1) == b""  # the daemon closed it
                    except ConnectionResetError:
                        pass
                if not payload:
                    assert daemon.metrics()["pool"]["protocol_errors"] == 0
            deadline = time.monotonic() + 10
            while daemon.metrics()["pool"]["protocol_errors"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            start = time.monotonic()
            daemon.close()
            elapsed = time.monotonic() - start
        assert elapsed < 2.0

    def test_tls_cluster_byte_identical_to_serial(self, tls_files, serial_results):
        """A self-signed daemon: its certificate is the trust root."""
        cert, key = tls_files
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, tls_cert=cert, tls_key=key
        ) as daemon:
            worker = _spawn_worker(daemon.port, "--tls-ca", cert)
            with ServiceBackend("127.0.0.1", daemon.port, tls_ca=cert) as backend:
                results = backend.evaluate_batch(_requests())
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )
        assert worker.wait(timeout=30) == 0

    def test_ca_signed_tls_cluster_byte_identical_to_serial(
        self, tls_pki, serial_results
    ):
        """A daemon certificate signed by a private CA, with no *tls_ca*:
        the certificate is no trust root of its own."""
        cert, key = tls_pki["daemon"]
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, tls_cert=cert, tls_key=key
        ) as daemon:
            worker = _spawn_worker(
                daemon.port, "--tls-ca", tls_pki["server_ca"]
            )
            with ServiceBackend(
                "127.0.0.1", daemon.port, tls_ca=tls_pki["server_ca"]
            ) as backend:
                results = backend.evaluate_batch(_requests())
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )
        assert worker.wait(timeout=30) == 0

    def test_mutual_tls_cluster_with_a_separate_client_ca(
        self, tls_pki, serial_results
    ):
        """*tls_ca* signs client certificates, not the daemon's: a
        backend presenting one runs its batches, and the port still
        turns away every peer without a client certificate, counting
        each under ``protocol_errors``."""
        cert, key = tls_pki["daemon"]
        client_cert, client_key = tls_pki["client"]
        with ServiceDaemon(
            "127.0.0.1",
            0,
            heartbeat_timeout=6.0,
            tls_cert=cert,
            tls_key=key,
            tls_ca=tls_pki["client_ca"],
        ) as daemon:
            worker = _spawn_worker(
                daemon.port,
                "--tls-ca", tls_pki["server_ca"],
                "--tls-cert", client_cert,
                "--tls-key", client_key,
            )
            with ServiceBackend(
                "127.0.0.1",
                daemon.port,
                tls_ca=tls_pki["server_ca"],
                tls_cert=client_cert,
                tls_key=client_key,
            ) as backend:
                results = backend.evaluate_batch(_requests())
            with ServiceClient(
                "127.0.0.1",
                daemon.port,
                tls_ca=tls_pki["server_ca"],
                tls_cert=client_cert,
                tls_key=client_key,
            ) as client:
                jobs = client.status()
            refused_before = daemon.metrics()["pool"]["protocol_errors"]
            anonymous = ServiceClient(
                "127.0.0.1",
                daemon.port,
                connect_timeout=1.0,
                tls_ca=tls_pki["server_ca"],
            )
            with pytest.raises(ServiceError):
                anonymous.status()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                refused_after = daemon.metrics()["pool"]["protocol_errors"]
                if refused_after:
                    break
                time.sleep(0.05)
        assert refused_before == 0
        assert refused_after >= 1
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )
        assert [job["state"] for job in jobs] == ["done"]
        assert worker.wait(timeout=30) == 0

    def test_cache_dir_serves_a_repeat_batch_from_the_store(self, tmp_path):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _spawn_worker(daemon.port)
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                first = backend.evaluate_batch(_requests())
                second = backend.evaluate_batch(_requests())
                jobs = backend.client.status()
        assert [job["state"] for job in jobs] == ["done", "done"]
        assert jobs[0]["shards"] > 0
        assert jobs[1]["shards"] == 0  # every cell came from the store
        assert list(map(_signature, second)) == list(map(_signature, first))
        assert worker.wait(timeout=30) == 0


# ----------------------------------------------------------------------
# Shared-secret handshake (worker and client connections)
# ----------------------------------------------------------------------
class TestSharedSecret:
    def test_worker_with_matching_secret_serves_sweep(self, serial_results):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as daemon:
            box: dict = {}

            def serve() -> None:
                box["code"] = run_worker(
                    f"127.0.0.1:{daemon.port}",
                    backend_spec="serial",
                    secret="tops3cret",
                    log=lambda *_: None,
                )

            worker = threading.Thread(target=serve)
            worker.start()
            with ServiceBackend(
                "127.0.0.1", daemon.port, secret="tops3cret"
            ) as backend:
                results = backend.evaluate_batch(_requests())
            daemon.close()
            worker.join(timeout=30)
        assert box["code"] == 0
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )

    def test_worker_with_wrong_secret_rejected(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as daemon:
            logged: list[str] = []
            code = run_worker(
                f"127.0.0.1:{daemon.port}",
                backend_spec="serial",
                secret="wrong",
                log=logged.append,
            )
        assert code == 2
        assert any("authentication failed" in line for line in logged)

    def test_worker_without_secret_rejected(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as daemon:
            logged: list[str] = []
            code = run_worker(
                f"127.0.0.1:{daemon.port}",
                backend_spec="serial",
                log=logged.append,
            )
        assert code == 2
        assert any("requires a shared secret" in line for line in logged)

    def test_service_client_secrets(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="tops3cret"
        ) as daemon:
            with pytest.raises(ServiceError, match="requires a shared secret"):
                ServiceClient("127.0.0.1", daemon.port).status()
            with pytest.raises(ServiceError, match="authentication failed"):
                ServiceClient("127.0.0.1", daemon.port, secret="bad").status()
            with ServiceClient(
                "127.0.0.1", daemon.port, secret="tops3cret"
            ) as client:
                assert client.status() == []

    def test_resolve_secret_precedence(self, monkeypatch):
        monkeypatch.delenv(SECRET_ENV, raising=False)
        assert resolve_secret(None) is None
        assert resolve_secret("s") == "s"
        monkeypatch.setenv(SECRET_ENV, "from-env")
        assert resolve_secret(None) == "from-env"
        assert resolve_secret("explicit") == "explicit"
        assert resolve_secret("") == "from-env" or resolve_secret("") is None
        monkeypatch.setenv(SECRET_ENV, "")
        assert resolve_secret(None) is None

    def test_subprocess_worker_env_secret(self, serial_results):
        """A real worker subprocess authenticates via the env variable."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, secret="envsecret"
        ) as daemon:
            env = _worker_env()
            env[SECRET_ENV] = "envsecret"
            worker = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.experiments",
                    "work",
                    "--connect",
                    f"127.0.0.1:{daemon.port}",
                    "--backend",
                    "serial",
                    "--connect-timeout",
                    "30",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            with ServiceBackend(
                "127.0.0.1", daemon.port, secret="envsecret"
            ) as backend:
                results = backend.evaluate_batch(_requests())
            daemon.close()
        assert list(map(_signature, results)) == list(
            map(_signature, serial_results)
        )
        assert worker.wait(timeout=30) == 0


# ----------------------------------------------------------------------
# Worker reconnect after a coordinator restart
# ----------------------------------------------------------------------
class _FlakyCoordinator:
    """Accepts twice: drops the first connection abruptly, then SHUTDOWNs."""

    def __init__(self, drop_first: bool = True):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(2)
        self.port = self.listener.getsockname()[1]
        self.accepts = 0
        self.drop_first = drop_first
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _recv_until(self, conn: socket.socket, kind: str) -> None:
        while True:
            message = recv_message(conn)
            if message is None or message[0] == kind:
                return

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        self.accepts += 1
        recv_message(conn)  # HELLO
        send_message(conn, (WELCOME, {"heartbeat_interval": 1.0}))
        self._recv_until(conn, GET)
        conn.close()  # abrupt: no SHUTDOWN — a crashed/restarted daemon
        if not self.drop_first:
            return
        conn, _ = self.listener.accept()
        self.accepts += 1
        with conn:
            recv_message(conn)  # HELLO
            send_message(conn, (WELCOME, {"heartbeat_interval": 1.0}))
            self._recv_until(conn, GET)
            send_message(conn, (SHUTDOWN,))
            self._recv_until(conn, "never")  # drain until the worker closes

    def close(self) -> None:
        self.listener.close()


class _MalformedDaemon:
    """Welcomes one client, then answers its request with *reply*."""

    def __init__(self, reply: tuple):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.reply = reply
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            recv_message(conn)  # HELLO
            send_message(conn, (WELCOME, {"heartbeat_interval": 1.0}))
            recv_message(conn)  # the request
            send_message(conn, self.reply)
            recv_message(conn)  # until the client hangs up

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=10)


class TestMalformedReplies:
    @pytest.mark.parametrize(
        "method, args, reply",
        [
            ("cancel", ("job-000001",), (CANCEL_REPLY, "job-000001")),
            ("status_full", (), (STATUS_REPLY,)),
            ("status_full", (), (STATUS_REPLY, [])),
            ("metrics", (), (METRICS_REPLY, "x")),
        ],
        ids=["cancel-short", "status-short", "status-list", "metrics-str"],
    )
    def test_malformed_reply_raises_service_error(self, method, args, reply):
        fake = _MalformedDaemon(reply)
        try:
            with ServiceClient("127.0.0.1", fake.port) as client:
                with pytest.raises(ServiceError, match="unexpected service reply"):
                    getattr(client, method)(*args)
        finally:
            fake.close()
        assert not fake.thread.is_alive()


class TestWorkerReconnect:
    def test_reconnects_after_coordinator_restart(self):
        fake = _FlakyCoordinator()
        logged: list[str] = []
        try:
            code = run_worker(
                f"127.0.0.1:{fake.port}",
                backend_spec="serial",
                reconnect_timeout=30.0,
                log=logged.append,
            )
        finally:
            fake.close()
        assert code == 0  # the *second* connection delivered SHUTDOWN
        assert fake.accepts == 2
        assert any("reconnecting" in line for line in logged)

    def test_reconnect_disabled_exits_on_loss(self):
        fake = _FlakyCoordinator(drop_first=False)
        try:
            code = run_worker(
                f"127.0.0.1:{fake.port}",
                backend_spec="serial",
                reconnect_timeout=0.0,
                log=lambda *_: None,
            )
        finally:
            fake.close()
        assert code == 1
        assert fake.accepts == 1


# ----------------------------------------------------------------------
# A worker asks for its next shard before evaluating the current one
# ----------------------------------------------------------------------
class TestWorkerPrefetch:
    def test_the_worker_asks_for_its_next_shard_before_evaluating(self):
        """The real worker's second GET reaches the coordinator (played
        by hand here) before its first RESULT."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30)
        codes: list[int] = []
        worker = threading.Thread(
            target=lambda: codes.append(
                run_worker(
                    f"127.0.0.1:{listener.getsockname()[1]}",
                    backend_spec="serial",
                    reconnect_timeout=0,
                    log=lambda *_: None,
                )
            ),
            daemon=True,
        )
        worker.start()
        try:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(30)
                assert recv_message(conn)[0] == HELLO
                send_message(conn, (WELCOME, {"heartbeat_interval": 60.0}))
                assert recv_message(conn) == (GET,)
                send_message(conn, (SHARD, 7, [(0, _requests()[0])]))
                assert recv_message(conn) == (GET,)  # before the RESULT
                reply = recv_message(conn)
                assert reply[:2] == (RESULT, 7)
                send_message(conn, (SHUTDOWN,))
                worker.join(timeout=30)
        finally:
            listener.close()
        assert codes == [0]

    def test_an_idle_worker_gets_a_new_shard_before_a_busy_one(self):
        """A busy worker's GET asking ahead is older than an idle
        worker's, yet a new one-shard job goes to the idle worker."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            busy = _FakeServiceWorker(daemon.port)
            idle = _FakeServiceWorker(daemon.port)
            first = client.submit([[("first", 0)]])
            second = None
            try:
                held = busy.pull()
                send_message(busy.sock, (GET,))  # asks ahead, first
                _wait_for_gets(daemon, 1)
                send_message(idle.sock, (GET,))
                _wait_for_gets(daemon, 2)
                second = client.submit([[("second", 0)]])
                message = recv_message(idle.sock)
                assert message[0] == SHARD and message[1] in second.shard_ids
                readable, _, _ = select.select([busy.sock], [], [], 0.2)
                assert readable == []  # the older GET still waits
                idle.finish(message[1], message[2])
                busy.finish(held[1], held[2])
                assert len(list(first.results())) == 1
                assert len(list(second.results())) == 1
            finally:
                busy.close()
                idle.close()
                first.close()
                if second is not None:
                    second.close()

    def test_a_worker_killed_holding_two_shards_charges_only_the_first(self):
        """Both shards of a dead worker are requeued, but only the one it
        was evaluating counts towards ``max_shard_requeues``: the shard
        it had asked for ahead never ran."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, max_shard_requeues=1
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            x = client.submit([[("x", 0)]], label="x")
            y = client.submit([[("y", 0)]], label="y")
            try:
                for _ in range(2):
                    worker = _FakeServiceWorker(daemon.port)
                    evaluating = worker.pull()
                    ahead = worker.pull()
                    assert evaluating[1] in x.shard_ids
                    assert ahead[1] in y.shard_ids
                    worker.close()  # dies holding both
                # x's shard was charged for both deaths, y's for neither
                with pytest.raises(ServiceError, match="poisoned"):
                    list(x.results())
                worker = _FakeServiceWorker(daemon.port)
                try:
                    message = worker.pull()
                    assert message[1] in y.shard_ids
                    worker.finish(message[1], message[2])
                    assert len(list(y.results())) == 1
                finally:
                    worker.close()
            finally:
                x.close()
                y.close()


# ----------------------------------------------------------------------
# run_stream ordering and early-consumer exit, across backends
# ----------------------------------------------------------------------
def _stream_spec() -> SweepSpec:
    return SweepSpec(
        instances=[InstanceSpec.from_nodes(n, 8) for n in (4, 6)],
        stencils=["nearest_neighbor"],
        mappers=["blocked", "hyperplane", "stencil_strips"],
    )


def _row_key(row):
    return (row.instance, row.stencil, row.mapper)


class TestRunStream:
    @pytest.fixture(params=["serial", "process:2", "service"])
    def stream_backend(self, request):
        if request.param == "service":
            port = request.getfixturevalue("service")
            yield f"service:127.0.0.1:{port}"
        else:
            yield request.param

    def test_rows_arrive_per_shard_and_cover_the_spec(self, stream_backend):
        from repro import ResultSet

        spec = _stream_spec()
        key = lambda r: (r["instance"], r["stencil"], r["mapper"])  # noqa: E731
        expected = sorted(run(spec).to_rows(), key=key)
        streamed = list(run_stream(spec, backend=stream_backend))
        assert all(row.ok for row in streamed)
        # Completion order may differ from spec order; coverage and
        # values must not.
        assert sorted(ResultSet(streamed).to_rows(), key=key) == expected

    def test_early_consumer_exit_cancels_cleanly(self, stream_backend):
        spec = _stream_spec()
        stream = run_stream(spec, backend=stream_backend)
        first = next(stream)
        stream.close()  # the consumer walks away mid-sweep
        assert first.instance  # a real row arrived before the exit
        # The backend (and for service: the daemon) survives — the same
        # spec still runs to completion afterwards.
        results = run(spec, backend=stream_backend)
        assert all(row.ok for row in results.rows)

    def test_service_jobs_all_terminal_after_early_exit(self, service):
        """Closing the stream cancels the job daemon-side (no zombie
        jobs holding queue slots)."""
        spec = _stream_spec()
        stream = run_stream(spec, backend=f"service:127.0.0.1:{service}")
        next(stream)
        stream.close()
        with ServiceClient("127.0.0.1", service) as client:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                states = {r["state"] for r in client.status()}
                if states <= {"done", "cancelled", "failed"}:
                    return
                time.sleep(0.1)
            pytest.fail(f"jobs left non-terminal: {client.status()}")


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestServiceSpec:
    def test_parse_service_spec(self):
        assert parse_service_spec("7077") == ("127.0.0.1", 7077, 0)
        assert parse_service_spec("head:7077") == ("head", 7077, 0)
        assert parse_service_spec("7077:5") == ("127.0.0.1", 7077, 5)
        assert parse_service_spec("7077:-5") == ("127.0.0.1", 7077, -5)
        assert parse_service_spec("head:7077:5") == ("head", 7077, 5)
        assert parse_service_spec(":7077:5") == ("127.0.0.1", 7077, 5)
        with pytest.raises(ValueError):
            parse_service_spec("")
        with pytest.raises(ValueError):
            parse_service_spec("head:notaport")
        with pytest.raises(ValueError):
            parse_service_spec("head:7077:high")
        with pytest.raises(ValueError):
            parse_service_spec("a:b:c:d")

    def test_resolve_backend_service_spec(self):
        backend = resolve_backend("service:127.0.0.1:7077:4")
        try:
            assert isinstance(backend, ServiceBackend)
            assert (backend.host, backend.port, backend.priority) == (
                "127.0.0.1",
                7077,
                4,
            )
        finally:
            backend.close()

    def test_resolve_backend_rejects_shards(self):
        with pytest.raises(ValueError, match="shards"):
            resolve_backend("service:7077", shards=4)

    def test_worker_refuses_service_backend(self):
        with pytest.raises(ValueError, match="cannot itself"):
            run_worker("127.0.0.1:1", backend_spec="service:7077")


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class _Bound(Exception):
    """Raised by a stand-in daemon/backend in place of binding."""


class TestBindGuard:
    """serve-jobs and the library daemon bind loopback by default, and
    no verb exposes an unauthenticated port on any other interface; a
    ``--backend cluster:`` spec binds nothing at all."""

    @pytest.fixture
    def binds(self, monkeypatch):
        """A stand-in for the daemon that would bind; records (host, port)."""
        monkeypatch.delenv(SECRET_ENV, raising=False)
        monkeypatch.delenv(TLS_CERT_ENV, raising=False)
        seen: list[tuple[str, int]] = []

        def stand_in(host, port, **options):
            seen.append((host, port))
            raise _Bound

        monkeypatch.setattr("repro.service.ServiceDaemon", stand_in)
        return seen

    @pytest.mark.parametrize("verb", ["serve-jobs"])
    def test_default_bind_is_loopback(self, binds, verb):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(_Bound):
            experiments_main([verb])
        assert binds == [("127.0.0.1", 7077)]

    @pytest.mark.parametrize("verb", ["serve-jobs"])
    @pytest.mark.parametrize("bind", [":7077", "0.0.0.0:7077", "10.1.2.3:7077"])
    def test_open_bind_without_auth_exits_before_binding(
        self, binds, verb, bind, capsys
    ):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main([verb, "--bind", bind])
        assert binds == []
        assert "refusing to bind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "auth", [["--secret", "s3cret"], ["--tls-cert", "daemon.pem"]]
    )
    def test_open_bind_with_auth_proceeds(self, binds, auth):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(_Bound):
            experiments_main(["serve-jobs", "--bind", "0.0.0.0:7077", *auth])
        assert binds == [("0.0.0.0", 7077)]

    def test_env_secret_authorises_an_open_bind(self, binds, monkeypatch):
        from repro.experiments.__main__ import main as experiments_main

        monkeypatch.setenv(SECRET_ENV, "from-env")
        with pytest.raises(_Bound):
            experiments_main(["serve-jobs", "--bind", ":7077"])
        assert binds == [("", 7077)]

    @pytest.mark.parametrize("spec", ["cluster:7077", "cluster:0.0.0.0:7077"])
    def test_open_cluster_backend_without_auth_exits_before_binding(
        self, binds, spec, capsys
    ):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["figure8", "--fast", "--backend", spec])
        assert excinfo.value.code == 2
        assert binds == []
        assert "unknown backend spec" in capsys.readouterr().err

    def test_library_default_bind_is_loopback(self):
        with ServiceDaemon() as daemon:
            assert daemon.host == "127.0.0.1"


class TestServiceCLI:
    def test_cache_dir_with_service_backend_is_an_error(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(
                [
                    "figure8",
                    "--fast",
                    "--backend",
                    "service:127.0.0.1:1",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
        err = capsys.readouterr().err
        assert "serve-jobs --cache-dir" in err and "work --cache-dir" in err

    def test_submit_status_roundtrip(self, service, capsys):
        from repro.experiments.__main__ import main as experiments_main

        code = experiments_main(
            [
                "submit",
                "sweep",
                "--connect",
                f"127.0.0.1:{service}",
                "--priority",
                "2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] and all(r["ok"] for r in doc["rows"])

        code = experiments_main(
            ["status", "--connect", f"127.0.0.1:{service}", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(
            r["state"] == "done" and r["priority"] == 2 for r in doc["jobs"]
        )
        # the full document carries the per-client and pool sections
        assert doc["clients"] and doc["clients"][0]["jobs_submitted"] >= 1
        assert doc["pool"]["workers"] >= 1

    def test_status_table_lists_columns(self, service, capsys):
        from repro.experiments.__main__ import main as experiments_main

        assert experiments_main(
            ["status", "--connect", f"127.0.0.1:{service}"]
        ) == 0
        out = capsys.readouterr().out
        assert "job" in out and "state" in out and "priority" in out

    def test_cancel_unknown_job_exits_1(self, service, capsys):
        from repro.experiments.__main__ import main as experiments_main

        code = experiments_main(
            [
                "cancel",
                "--connect",
                f"127.0.0.1:{service}",
                "--job",
                "job-999999",
            ]
        )
        assert code == 1

    def test_submit_requires_connect(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["submit", "sweep"])

    def test_submit_rejects_unknown_target(self, service):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(
                ["submit", "figure6", "--connect", f"127.0.0.1:{service}"]
            )


class TestCacheCLI:
    @staticmethod
    def _seed(tmp_path) -> None:
        from repro.engine.diskcache import DiskStore

        store = DiskStore(tmp_path)
        store.store("a" * 64, (None, None, "rejected", {}))
        assert store.stats().entries == 1
        assert store.stats().total_bytes > 0

    def test_stats_and_clear(self, tmp_path):
        from repro.engine.diskcache import DiskStore

        self._seed(tmp_path)
        store = DiskStore(tmp_path)
        assert store.clear() == 1
        stats = store.stats()
        assert stats.entries == 0 and stats.total_bytes == 0

    def test_cache_cli_table_json_clear(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main

        self._seed(tmp_path)
        # older releases' tiers: read, cleared and pruned by nothing
        legacy = [
            tmp_path / f"perm-{'a' * 64}.pkl",
            tmp_path / f"edges-{'a' * 64}.npy",
            tmp_path / f"result-{'b' * 64}.pkl",  # a pickled cell
        ]
        for path in legacy:
            path.write_bytes(b"legacy")
        assert experiments_main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(tmp_path) in out
        assert "result" in out and "perm" not in out and "edges" not in out

        assert experiments_main(
            [
                "cache",
                "--cache-dir",
                str(tmp_path),
                "--clear",
                "--format",
                "json",
            ]
        ) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["kind"] == "result"
        assert record["removed"] == 1 and record["entries"] == 0
        assert all(path.exists() for path in legacy)

    def test_cache_cli_without_directory_fails(self, monkeypatch):
        from repro.engine.diskcache import CACHE_DIR_ENV
        from repro.experiments.__main__ import main as experiments_main

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            experiments_main(["cache"])


# ----------------------------------------------------------------------
# The memoized result-serving layer (content-addressed result store)
# ----------------------------------------------------------------------
def _row_signature(row) -> tuple:
    """Byte-exact comparable form of one wire row
    ``(index, perm, cost, error, metrics)``."""
    index, perm, cost, error, metrics = row
    return (
        index,
        None if perm is None else perm.tobytes(),
        None
        if cost is None
        else (cost.jsum, cost.jmax, cost.per_node.tobytes()),
        error,
        tuple(sorted(metrics.items())),
    )


def _worker_rows(items: list) -> list:
    """What a real worker would answer for one shard, computed locally:
    ``(index, cell)`` rows from the worker's own encoder."""
    with EvaluationEngine(max_workers=1) as engine:
        results = engine.evaluate_batch([request for _, request in items])
    return _result_rows(items, results)


def _values(rows: list) -> list:
    """The ``(index, perm, cost, error, metrics)`` rows of cell rows."""
    return [(index, *decode_cell(cell)) for index, cell in rows]


class TestResultStore:
    def test_same_sweep_twice_with_restart_serves_from_store(self, tmp_path):
        """Golden: a repeat SweepSpec submitted after a daemon restart
        (same cache dir) returns byte-identical rows with zero shards
        dispatched — the second daemon has no workers at all."""
        spec = SweepSpec(
            instances=[
                InstanceSpec.from_nodes(4, 8),
                InstanceSpec.from_nodes(6, 8),
            ],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane", "nodecart"],
        )
        assert spec.fingerprint() == spec.fingerprint()
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _spawn_worker(daemon.port)
            try:
                daemon.wait_for_workers(1, timeout=60)
                with ServiceBackend("127.0.0.1", daemon.port) as backend:
                    first = run(spec, backend).to_rows()
            finally:
                pass  # daemon close shuts the worker down
        assert worker.wait(timeout=30) == 0

        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            assert daemon.num_workers == 0
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                second = run(spec, backend).to_rows()
            (record,) = daemon.jobs()
            assert record["shards"] == 0  # nothing dispatched
            assert record["state"] == "done"
        assert second == first
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        assert second == serial

    def test_partial_hits_dispatch_only_unknown_cells(self, tmp_path):
        """A job mixing known and novel cells ships only the novel ones,
        and its rows come back in item order, the known ones as the warm
        run's, whether the known cells lead or interleave."""
        requests = _requests()[:4]
        for warm_at in ((0, 1), (0, 2)):
            store = tmp_path / "-".join(map(str, warm_at))
            with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=store) as daemon:
                worker = _FakeServiceWorker(daemon.port)
                client = ServiceClient("127.0.0.1", daemon.port)
                h1 = h2 = None
                try:
                    h1 = client.submit(
                        [[(i, requests[i]) for i in warm_at]], label="warm"
                    )
                    message = worker.pull()
                    send_message(
                        worker.sock,
                        (RESULT, message[1], _worker_rows(message[2])),
                    )
                    ((_, warm),) = list(h1.results())
                    # repeat the known cells among novel ones
                    mixed = [(i, r) for i, r in enumerate(requests)]
                    h2 = client.submit([mixed], label="mixed")
                    message = worker.pull()
                    # only the novel cells shipped
                    novel = [i for i in range(len(requests)) if i not in warm_at]
                    assert [index for index, _ in message[2]] == novel
                    send_message(
                        worker.sock,
                        (RESULT, message[1], _worker_rows(message[2])),
                    )
                    (got,) = [p for _, p in h2.results()]
                    assert [row[0] for row in got] == [0, 1, 2, 3]
                    assert all(row[1] is not None for row in got)
                    assert [_row_signature(got[i]) for i in warm_at] == list(
                        map(_row_signature, warm)
                    )
                finally:
                    worker.close()
                    for handle in (h1, h2):
                        if handle is not None:
                            handle.close()
                    client.close()

    def test_job_fail_names_a_submitted_shard(self, tmp_path):
        """A shard a worker FAILs reaches the client as JOB_FAIL naming
        one of the shard ids SUBMITTED gave it."""
        requests = _requests()[:2]
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            handle = client.submit(
                [[(0, requests[0])], [(1, requests[1])]], label="failing"
            )
            try:
                failed = worker.pull()
                send_message(worker.sock, (FAIL, failed[1], "boom"))
                with pytest.raises(
                    ServiceError, match=f"failed on shard {failed[1]}: boom"
                ):
                    list(handle.results())
                assert failed[1] in handle.shard_ids
            finally:
                worker.close()
                handle.close()
                client.close()

    def test_opaque_payloads_pass_through_untouched(self, tmp_path):
        """Unkeyable items are dispatched verbatim and their payloads
        forwarded unparsed, even with the store armed."""
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            try:
                handle = client.submit([[("opaque", 0)]], label="raw")
                message = worker.pull()
                assert message[2] == [("opaque", 0)]
                worker.finish(message[1], message[2])
                ((_, payload),) = list(handle.results())
                assert [row[3] for row in payload] == [f"payload-{message[1]}"]
            finally:
                worker.close()
                handle.close()
                client.close()


# ----------------------------------------------------------------------
# One cell store: engines and daemons answer each other's cells
# ----------------------------------------------------------------------
def _weighted_spec() -> SweepSpec:
    """A small sweep with a metric column and nodecart rejections."""
    from repro import weighted_bytes_metric
    from repro.workloads import halo_exchange_volume

    volumes = halo_exchange_volume(
        CartesianGrid([4, 8]), nearest_neighbor(2), (8, 8), 4
    )
    from repro import NodeAllocation

    # a heterogeneous allocation, which nodecart rejects
    uneven = InstanceSpec(CartesianGrid([5, 7]), NodeAllocation([5, 10, 20]), "uneven")
    return SweepSpec(
        instances=[
            InstanceSpec.from_nodes(4, 8),
            InstanceSpec.from_nodes(6, 8),
            uneven,
        ],
        stencils=["nearest_neighbor"],
        mappers=["blocked", "hyperplane", "nodecart"],
        metrics=[weighted_bytes_metric(volumes)],
    )


def _within(seconds: float, fn):
    """``fn()``, which must return within *seconds*: a worker-less
    daemon that dispatched a shard would never answer."""
    box: dict = {}
    thread = threading.Thread(target=lambda: box.update(value=fn()), daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "the daemon dispatched shards"
    return box["value"]


def _replay(port: int, spec: SweepSpec) -> list:
    """*spec*'s rows from a worker-less daemon's store."""

    def rows() -> list:
        with ServiceBackend("127.0.0.1", port) as backend:
            return run(spec, backend).to_rows()

    return _within(30, rows)


class TestSharedCellStore:
    def test_process_cells_answer_a_workerless_daemon(self, tmp_path):
        """Cells a process pool computed are served by a daemon that has
        no worker at all: zero shards dispatched, rows as serial."""
        spec = _weighted_spec()
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        with ProcessBackend(2, disk_cache_dir=tmp_path) as backend:
            assert run(spec, backend).to_rows() == serial
        store = DiskStore(tmp_path)
        assert all(store.load(cell_key(r)) for r in spec.compile())
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            assert daemon.num_workers == 0
            rows = _replay(daemon.port, spec)
            (record,) = daemon.jobs()
            counters = daemon.metrics()["store"]
        assert record["shards"] == 0 and record["state"] == "done"
        assert counters["hits"] == len(serial) and counters["misses"] == 0
        assert rows == serial

    def test_daemon_cells_answer_a_fresh_serial_engine(self, tmp_path, monkeypatch):
        """Cells a daemon's worker computed are served to a fresh serial
        engine with no mapper run and no edge array built.  The worker's
        own disk layer is off, so every cell is one the daemon stored."""
        spec = _weighted_spec()
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            env = _worker_env()
            env["REPRO_CACHE_DIR"] = ""
            worker = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.experiments",
                    "work",
                    "--connect",
                    f"127.0.0.1:{daemon.port}",
                    "--backend",
                    "serial",
                    "--connect-timeout",
                    "30",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            daemon.wait_for_workers(1, timeout=60)
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                assert run(spec, backend).to_rows() == serial
        assert worker.wait(timeout=30) == 0
        assert {path.name.split("-")[0] for path in tmp_path.iterdir()} == {"result"}

        calls: list[str] = []

        def no_mapper(name):
            calls.append(f"mapper {name}")
            raise AssertionError("a stored cell ran its mapper")

        def no_edges(grid, stencil):
            calls.append("communication_edges")
            raise AssertionError("a stored cell built its edges")

        monkeypatch.setattr("repro.engine.engine.resolve_mapper", no_mapper)
        monkeypatch.setattr("repro.engine.engine.communication_edges", no_edges)
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            rows = run(spec, engine).to_rows()
            stats = engine.disk_store_stats()["result"]
            assert engine.cache_stats()["edges"].size == 0  # none built or loaded
        assert calls == []
        assert rows == serial
        assert (stats.hits, stats.misses) == (len(serial), 0)

    def test_each_dispatched_cell_is_published_once(self, tmp_path, monkeypatch):
        """A worker given no cache directory leaves the daemon's store to
        the daemon: each dispatched cell is stored once, and every store
        call runs on the daemon's event-loop thread."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        spec = _weighted_spec()
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        calls: list[tuple[str, str | None, threading.Thread]] = []
        real_load, real_store = DiskStore.load_bytes, DiskStore.store

        def load_bytes(store, key):
            calls.append(("load", None, threading.current_thread()))
            return real_load(store, key)

        def store(store, key, cell):
            calls.append(("store", key, threading.current_thread()))
            return real_store(store, key, cell)

        monkeypatch.setattr(DiskStore, "load_bytes", load_bytes)
        monkeypatch.setattr(DiskStore, "store", store)
        box: dict = {}
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:

            def serve() -> None:
                box["code"] = run_worker(
                    f"127.0.0.1:{daemon.port}",
                    backend_spec="serial",
                    reconnect_timeout=0,
                    log=lambda *_: None,
                )

            worker = threading.Thread(target=serve, daemon=True)
            worker.start()
            daemon.wait_for_workers(1, timeout=60)
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                rows = run(spec, backend).to_rows()
            loop_thread = daemon._thread
        worker.join(timeout=30)
        assert not worker.is_alive() and box["code"] == 0
        assert rows == serial
        keys = {cell_key(request) for request in spec.compile()}
        stored = sorted(key for kind, key, _ in calls if kind == "store")
        assert stored == sorted(keys)  # every cell once, none twice
        assert {kind for kind, _, _ in calls} == {"load", "store"}
        assert all(thread is loop_thread for _, _, thread in calls)
        assert {path.name for path in tmp_path.iterdir()} == {
            f"result-{key}.cell" for key in keys
        }

    def test_full_disk_daemon_serves_rows_and_stores_none(
        self, tmp_path, monkeypatch
    ):
        """A daemon whose store hits ENOSPC mid-publish still returns
        every row as serial, and leaves neither a cell nor a tmp file."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        spec = _weighted_spec()
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        monkeypatch.setattr(diskcache, "os", _FullDisk())
        box: dict = {}
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:

            def serve() -> None:
                box["code"] = run_worker(
                    f"127.0.0.1:{daemon.port}",
                    backend_spec="serial",
                    reconnect_timeout=0,
                    log=lambda *_: None,
                )

            worker = threading.Thread(target=serve, daemon=True)
            worker.start()
            daemon.wait_for_workers(1, timeout=60)
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                rows = run(spec, backend).to_rows()
            store = daemon.metrics()["store"]
        worker.join(timeout=30)
        assert not worker.is_alive() and box["code"] == 0
        assert rows == serial
        assert (store["hits"], store["misses"]) == (0, len(serial))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("corruption", ["garbage", "wrong-shape"])
    def test_corrupt_cell_is_recomputed_and_counted(self, tmp_path, corruption):
        """An unreadable cell is a counted miss: an engine recomputes it
        (rows as serial), a daemon dispatches it."""
        request = _weighted_requests()[0]
        (reference,) = EvaluationEngine(max_workers=1).evaluate_batch([request])
        path = tmp_path / f"result-{cell_key(request)}.cell"

        def corrupt() -> None:
            if corruption == "garbage":
                path.write_bytes(b"\x80\x05garbage")
            else:  # a well-formed pickle of a wrong-typed cell, never unpickled
                path.write_bytes(pickle.dumps(("perm", None, None, {})))

        corrupt()
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            (result,) = engine.evaluate_batch([request])
            stats = engine.disk_store_stats()["result"]
        assert _signature(result) == _signature(reference)
        assert (stats.corrupt, stats.misses, stats.stores) == (1, 1, 1)

        corrupt()
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            handle = client.submit([[(0, request)]], label="corrupt")
            try:
                message = worker.pull()  # the cell was dispatched
                rows = _worker_rows(message[2])
                send_message(worker.sock, (RESULT, message[1], rows))
                ((_, got),) = list(handle.results())
                store = client.metrics()["store"]
            finally:
                worker.close()
                handle.close()
                client.close()
        assert store["corrupt"] == 1 and store["misses"] == 1
        assert list(map(_row_signature, got)) == list(
            map(_row_signature, _values(rows))
        )


# ----------------------------------------------------------------------
# The daemon remembers the cells it loaded
# ----------------------------------------------------------------------
def _warm_store(directory, requests: list) -> None:
    """Store the cells of *requests* in *directory*, as a serial run does."""
    with EvaluationEngine(max_workers=1, disk_cache_dir=directory) as engine:
        engine.evaluate_batch(requests)


def _count_loads(monkeypatch) -> list[str]:
    """The key of every later :meth:`DiskStore.load_bytes` call (a
    daemon's cell reads), in order."""
    keys: list[str] = []
    real_load = DiskStore.load_bytes

    def load_bytes(store, key):
        keys.append(key)
        return real_load(store, key)

    monkeypatch.setattr(DiskStore, "load_bytes", load_bytes)
    return keys


class TestStoreMemory:
    """A worker-less daemon over a warm store keeps the cells it loaded
    in memory, so a repeat submission reads no cell file."""

    def test_a_repeat_submission_loads_no_cell(self, tmp_path, monkeypatch):
        spec = _weighted_spec()
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        _warm_store(tmp_path, spec.compile())
        cells = len(spec.compile())
        loads = _count_loads(monkeypatch)
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            first = _replay(daemon.port, spec)
            assert len(loads) == cells
            second = _replay(daemon.port, spec)
            jobs = daemon.jobs()
            store = daemon.metrics()["store"]
        assert len(loads) == cells  # the repeat read no file
        assert first == second == serial
        assert [job["shards"] for job in jobs] == [0, 0]
        assert store["memory_hits"] == cells
        assert (store["hits"], store["misses"]) == (2 * cells, 0)
        assert store["memory_cells"] == cells

    def test_a_deleted_cell_is_dispatched(self, tmp_path):
        """A remembered cell whose file is gone misses, as it would
        without memory: ``cache clear`` and pruning keep their meaning."""
        spec = _weighted_spec()
        _warm_store(tmp_path, spec.compile())
        requests = spec.compile()
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            _replay(daemon.port, spec)
            (tmp_path / f"result-{cell_key(requests[0])}.cell").unlink()
            with ServiceClient("127.0.0.1", daemon.port) as client:
                with client.submit([list(enumerate(requests))]) as handle:
                    (record,) = client.status(handle.job_id)
                    store = client.metrics()["store"]
                    assert client.cancel(handle.job_id) is True
        assert record["shards"] == 1  # queued for a worker, not answered
        assert store["misses"] == 1
        assert store["memory_hits"] == len(requests) - 1
        assert store["memory_cells"] == len(requests) - 1

    def test_a_memory_hit_bumps_the_cell_mtime(self, tmp_path):
        spec = _weighted_spec()
        _warm_store(tmp_path, spec.compile())
        paths = sorted(tmp_path.glob("result-*.cell"))
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            _replay(daemon.port, spec)
            for path in paths:
                os.utime(path, (1e9, 1e9))  # September 2001
            _replay(daemon.port, spec)
            store = daemon.metrics()["store"]
        assert store["memory_hits"] == len(paths)
        assert all(time.time() - path.stat().st_mtime < 600 for path in paths)

    def test_the_budget_evicts_the_least_recently_used_cell(
        self, tmp_path, monkeypatch
    ):
        requests = _requests()[:3]  # three mappers on one instance
        _warm_store(tmp_path, requests)
        keys = [cell_key(request) for request in requests]
        stored = DiskStore(tmp_path)
        sizes = {len(stored.load_bytes(key)) for key in keys}
        (size,) = sizes
        budget = 2 * size + size // 2  # room for two cells, not three
        monkeypatch.setattr(coordinator, "_MEMORY_BYTES", budget)
        loads = _count_loads(monkeypatch)
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            client = ServiceClient("127.0.0.1", daemon.port)

            def ask(*picks: int) -> dict:
                def job() -> list:
                    payload = [[(i, requests[i]) for i in picks]]
                    with client.submit(payload) as handle:
                        return list(handle.results())

                _within(30, job)
                store = client.metrics()["store"]
                assert store["memory_bytes"] <= budget
                return store

            ask(0)
            ask(1)
            ask(0)  # cell 1 is now the least recently used
            assert ask(2)["memory_cells"] == 2  # ...so it made room
            assert loads == [keys[0], keys[1], keys[2]]
            ask(0, 2)
            assert loads == [keys[0], keys[1], keys[2]]
            store = ask(1)
            client.close()
        assert loads == [keys[0], keys[1], keys[2], keys[1]]
        assert store["memory_hits"] == 3
        assert (store["memory_cells"], store["memory_bytes"]) == (2, 2 * size)

    def test_a_published_cell_is_remembered(self, tmp_path, monkeypatch):
        """The daemon remembers a copy of each cell it publishes: the
        next two submissions are memory hits and read no file."""
        payload = [[(0, _requests()[0])]]
        loads = _count_loads(monkeypatch)
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            worker = _FakeServiceWorker(daemon.port)
            client = ServiceClient("127.0.0.1", daemon.port)
            try:
                with client.submit(payload) as handle:
                    message = worker.pull()
                    rows = _worker_rows(message[2])
                    send_message(worker.sock, (RESULT, message[1], rows))
                    list(handle.results())
                assert client.metrics()["store"]["memory_cells"] == 1
                for _ in range(2):

                    def job() -> list:
                        with client.submit(payload) as handle:
                            return list(handle.results())

                    _within(30, job)
                store = client.metrics()["store"]
            finally:
                worker.close()
                client.close()
        assert len(loads) == 1  # the first submission's miss
        assert (store["memory_cells"], store["memory_hits"]) == (1, 2)

    def test_a_corrupt_cell_is_never_remembered(self, tmp_path):
        spec = _weighted_spec()
        _warm_store(tmp_path, spec.compile())
        requests = spec.compile()
        path = tmp_path / f"result-{cell_key(requests[0])}.cell"
        path.write_bytes(b"\x80\x05garbage")
        with ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=tmp_path
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            for attempt in (1, 2):
                with client.submit([list(enumerate(requests))]) as handle:
                    (record,) = client.status(handle.job_id)
                    store = client.metrics()["store"]
                    assert client.cancel(handle.job_id) is True
                assert record["shards"] == 1
                # read, counted and refused again on every submission
                assert (store["corrupt"], store["misses"]) == (attempt, attempt)
                assert store["memory_cells"] == len(requests) - 1
        assert store["memory_hits"] == len(requests) - 1


# ----------------------------------------------------------------------
# Faults on the results path
# ----------------------------------------------------------------------
def _held_shard(coord):
    """The one shard a coordinator's workers hold."""
    (shard,) = [s for conn in coord._workers for s in conn.inflight.values()]
    return shard


def _closed(sock: socket.socket) -> bool:
    sock.settimeout(10)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestResultFaults:
    def test_a_half_sent_result_requeues_the_shard(self):
        """A worker dying halfway through its RESULT frame is a counted
        protocol error; its shard is charged one requeue and a second
        worker's rows come back as serial."""
        requests = _requests()[:4]
        serial = EvaluationEngine(max_workers=1).evaluate_batch(requests)
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            with client.submit([list(enumerate(requests))]) as handle:
                first = _FakeServiceWorker(daemon.port)
                message = first.pull()
                shard = daemon._snapshot(_held_shard, daemon._coordinator)
                frame = encode_message(
                    (RESULT, message[1], _worker_rows(message[2]))
                )
                first.sock.sendall(frame[: len(frame) // 2])
                first.close()
                second = _FakeServiceWorker(daemon.port)
                try:
                    again = second.pull()
                    assert again[1] == message[1]
                    assert shard.requeues == 1
                    send_message(
                        second.sock, (RESULT, again[1], _worker_rows(again[2]))
                    )
                    ((_, rows),) = list(handle.results())
                finally:
                    second.close()
            pool = client.metrics()["pool"]
        assert pool["protocol_errors"] == 1
        expected = [
            (i, r.perm, r.cost, r.error, r.metrics) for i, r in enumerate(serial)
        ]
        assert list(map(_row_signature, rows)) == list(
            map(_row_signature, expected)
        )

    @pytest.mark.parametrize("fault", ["wrong-key", "bad-crc"])
    def test_a_bad_cell_closes_the_worker_and_stores_nothing(self, tmp_path, fault):
        """A cell under another item's key, or with a broken checksum, is
        a protocol error from its worker: the connection closes, the
        shard is requeued, and neither key gets a file until a good
        worker answers."""
        requests = _requests()[:2]
        keys = [cell_key(request) for request in requests]
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, disk_cache_dir=tmp_path
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            with client.submit([list(enumerate(requests))]) as handle:
                bad = _FakeServiceWorker(daemon.port)
                try:
                    message = bad.pull()
                    rows = _worker_rows(message[2])
                    index, cell = rows[0]
                    if fault == "wrong-key":
                        cell = encode_cell(decode_cell(cell), keys[1])
                    else:
                        cell = cell[:-1] + bytes([cell[-1] ^ 1])
                    rows[0] = (index, cell)
                    send_message(bad.sock, (RESULT, message[1], rows))
                    assert _closed(bad.sock)
                finally:
                    bad.close()
                assert client.metrics()["pool"]["protocol_errors"] == 1
                assert list(tmp_path.iterdir()) == []
                good = _FakeServiceWorker(daemon.port)
                try:
                    again = good.pull()
                    assert again[1] == message[1]
                    send_message(
                        good.sock, (RESULT, again[1], _worker_rows(again[2]))
                    )
                    ((_, got),) = list(handle.results())
                finally:
                    good.close()
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"result-{key}.cell" for key in keys
        )
        assert [row[0] for row in got] == [0, 1]

    def test_rows_of_other_cells_fail_the_batch(self):
        """A daemon without a store forwards a worker's rows as sent; the
        service backend refuses a shard answered out of order."""
        requests = _requests()[:2]  # one instance: one shard
        box: dict = {}
        with ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=30.0) as daemon:
            worker = _FakeServiceWorker(daemon.port)

            def evaluate() -> None:
                with ServiceBackend("127.0.0.1", daemon.port) as backend:
                    try:
                        backend.evaluate_batch(requests)
                    except ServiceError as exc:
                        box["error"] = exc

            thread = threading.Thread(target=evaluate, daemon=True)
            thread.start()
            try:
                message = worker.pull()
                rows = _worker_rows(message[2])[::-1]
                send_message(worker.sock, (RESULT, message[1], rows))
                thread.join(timeout=30)
            finally:
                worker.close()
        assert not thread.is_alive()
        assert "rows of other cells" in str(box["error"])

    def test_a_v6_hello_is_rejected(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                send_message(sock, (HELLO, MAGIC, 6, {"pickle": 5, "role": "worker"}))
                reply = recv_message(sock)
        assert reply[0] == REJECT
        assert "coordinator speaks 7, peer speaks 6" in reply[1]


def _list_values(ctx, perms, spec):
    """A metric with one plain column and one list-valued column."""
    return [{"plain": 1.5, "listed": [1, 2]} for _ in range(perms.shape[0])]


class TestMetricValueRule:
    def test_a_list_valued_metric_errs_alike_on_every_backend(self, monkeypatch):
        """A metric value no result cell can carry is that metric's
        failure, with the same row on serial, process and service."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        register_metric("test_list_values", _list_values, replace=True)
        spec = SweepSpec(
            instances=[InstanceSpec.from_nodes(4, 8)],
            stencils=["nearest_neighbor"],
            mappers=["blocked", "hyperplane"],
            metrics=["test_list_values"],
        )
        serial = run(spec, EvaluationEngine(max_workers=1)).to_rows()
        with ProcessBackend(2) as backend:
            process = run(spec, backend).to_rows()
        box: dict = {}
        with ServiceDaemon("127.0.0.1", 0) as daemon:

            def serve() -> None:
                box["code"] = run_worker(
                    f"127.0.0.1:{daemon.port}",
                    backend_spec="serial",
                    reconnect_timeout=0,
                    log=lambda *_: None,
                )

            worker = threading.Thread(target=serve, daemon=True)
            worker.start()
            daemon.wait_for_workers(1, timeout=60)
            with ServiceBackend("127.0.0.1", daemon.port) as backend:
                service = run(spec, backend).to_rows()
        worker.join(timeout=30)
        assert not worker.is_alive() and box["code"] == 0
        assert process == serial and service == serial
        for row in serial:
            assert row["error"] == (
                "metric 'test_list_values' failed: column 'listed' holds a "
                "list, not a bool, int, float or str"
            )
            assert row["jsum"] is not None and row["metrics"] == {}


class TestServeJobsSignals:
    def test_sigterm_stops_a_daemon_started_with_sigint_ignored(self):
        """A background job of a non-interactive shell starts with SIGINT
        ignored; SIGTERM must still stop serve-jobs cleanly."""
        proc, _ = _spawn_daemon(
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
        )
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "service daemon interrupted; shutting down" in out
