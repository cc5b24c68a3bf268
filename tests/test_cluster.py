"""Worker failure paths of the service tier, over localhost sockets.

An in-process :class:`~repro.service.ServiceDaemon` with a
:class:`~repro.service.ServiceBackend` submitting to it, and real
``work`` subprocesses or hand-driven fake workers: shard requeue when a
worker dies mid-shard (abrupt disconnect, ``SIGKILL``, and the
silent-worker heartbeat timeout) with costs byte-identical to the
serial engine, stale-protocol rejection at handshake, the worker's exit
codes, and the refusal of the retired ``cluster:`` spec.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import (
    CartesianGrid,
    ClusterError,
    EvaluationEngine,
    MappingRequest,
    NodeAllocation,
    ServiceBackend,
    ServiceDaemon,
    nearest_neighbor,
    resolve_backend,
)
from repro.engine.cluster import parse_address
from repro.engine.cluster.protocol import (
    FAIL,
    GET,
    HELLO,
    MAGIC,
    PROTOCOL_VERSION,
    REJECT,
    SHARD,
    WELCOME,
    ProtocolError,
    encode_message,
    hello,
    recv_message,
    send_message,
)
from repro.engine.cluster.worker import run_worker
from repro.engine.diskcache import cell_key

from .test_backends import _requests, _signature

#: src/ directory of this checkout, for worker subprocess PYTHONPATH.
_SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "work",
            "--connect",
            f"127.0.0.1:{port}",
            "--backend",
            "serial",
            "--connect-timeout",
            "30",
            *extra,
        ],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class _FakeWorker:
    """A hand-driven protocol client for exercising failure paths."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)

    def handshake(self) -> tuple:
        send_message(self.sock, hello({"fake": True}))
        reply = recv_message(self.sock)
        assert reply is not None and reply[0] == WELCOME
        return reply

    def pull_shard(self) -> tuple:
        """Request work and block until a shard arrives."""
        send_message(self.sock, (GET,))
        message = recv_message(self.sock)
        assert message is not None and message[0] == SHARD
        return message

    def close(self) -> None:
        self.sock.close()


@pytest.fixture(scope="module")
def serial_results():
    return EvaluationEngine(max_workers=1).evaluate_batch(_requests())


@pytest.fixture
def daemon():
    service = ServiceDaemon("127.0.0.1", 0, heartbeat_timeout=6.0)
    try:
        yield service
    finally:
        service.close()


def _backend(daemon: ServiceDaemon) -> ServiceBackend:
    """A backend submitting to *daemon*, as a ``service:`` spec builds."""
    return ServiceBackend("127.0.0.1", daemon.port)


def _early_deaths(daemon: ServiceDaemon) -> int:
    return daemon.metrics()["pool"]["worker_early_deaths"]


class TestWorkerFailure:
    def test_disconnect_mid_shard_requeues(self, serial_results):
        """A worker that takes a shard and dies loses only throughput:
        the shard is requeued and another worker completes the sweep."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0
        ) as daemon, _backend(daemon) as backend:
            saboteur = _FakeWorker(daemon.port)
            saboteur.handshake()
            send_message(saboteur.sock, (GET,))  # parked: first in line

            box: dict = {}

            def sweep():
                box["results"] = backend.evaluate_batch(_requests())

            runner = threading.Thread(target=sweep)
            runner.start()
            # The parked GET is served as soon as shards are queued.
            message = recv_message(saboteur.sock)
            assert message[0] == SHARD
            saboteur.close()  # dies holding the shard

            survivor = _spawn_worker(daemon.port)
            runner.join(timeout=120)
            assert not runner.is_alive()
            # The saboteur died holding its first shard; the survivor
            # completed shards.
            assert _early_deaths(daemon) == 1
        assert list(map(_signature, box["results"])) == list(
            map(_signature, serial_results)
        )
        assert survivor.wait(timeout=30) == 0

    def test_sigkill_mid_sweep_completes(self):
        """Acceptance: kill -9 one of two real workers mid-sweep; the
        sweep still completes with byte-identical costs."""
        stencil = nearest_neighbor(2)
        requests = []
        for nodes in (8, 10, 12, 15, 18, 20):
            grid = CartesianGrid([nodes, 24])
            alloc = NodeAllocation.homogeneous(nodes, 24)
            for name in ("blocked", "hyperplane", "kd_tree", "stencil_strips"):
                requests.append(
                    MappingRequest(grid, stencil, alloc, name, tag=(nodes, name))
                )
        serial = EvaluationEngine(max_workers=1).evaluate_batch(requests)

        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0
        ) as daemon, _backend(daemon) as backend:
            victim = _spawn_worker(daemon.port)
            survivor = _spawn_worker(daemon.port)
            daemon.wait_for_workers(2, timeout=60)
            streamed = []
            stream = backend.evaluate_stream(requests)
            streamed.append(next(stream))
            victim.send_signal(signal.SIGKILL)
            streamed.extend(stream)
        assert sorted(map(_signature, streamed)) == sorted(
            map(_signature, serial)
        )
        victim.wait(timeout=30)
        assert survivor.wait(timeout=30) == 0

    def test_heartbeat_timeout_reaps_silent_worker(self, serial_results):
        """A connected-but-silent worker is reaped after the heartbeat
        timeout and its shard is requeued, instead of hanging the sweep."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=1.5
        ) as daemon, _backend(daemon) as backend:
            mute = _FakeWorker(daemon.port)
            mute.handshake()
            send_message(mute.sock, (GET,))

            box: dict = {}

            def sweep():
                box["results"] = backend.evaluate_batch(_requests())

            runner = threading.Thread(target=sweep)
            runner.start()
            message = recv_message(mute.sock)
            assert message[0] == SHARD
            # ... and now say nothing: no result, no pings.
            survivor = _spawn_worker(daemon.port)
            runner.join(timeout=120)
            assert not runner.is_alive()
            # the coordinator closed the mute connection
            assert recv_message(mute.sock) is None
            mute.close()
            assert _early_deaths(daemon) == 1  # the reaped mute worker
        assert list(map(_signature, box["results"])) == list(
            map(_signature, serial_results)
        )
        assert survivor.wait(timeout=30) == 0

    def test_repeated_worker_deaths_fail_the_shard(self):
        """A shard that keeps killing its workers (OOM-style death, no
        FAIL message) must not cycle through the cluster forever: after
        max_shard_requeues worker deaths the sweep fails."""
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, max_shard_requeues=1
        ) as daemon, _backend(daemon) as backend:
            first = _FakeWorker(daemon.port)
            first.handshake()
            send_message(first.sock, (GET,))

            box: dict = {}

            def sweep():
                try:
                    backend.evaluate_batch(_requests())
                except ClusterError as exc:
                    box["error"] = str(exc)

            runner = threading.Thread(target=sweep)
            runner.start()
            assert recv_message(first.sock)[0] == SHARD
            first.close()  # death #1: requeued (1 <= max_shard_requeues)

            second = _FakeWorker(daemon.port)
            second.handshake()
            send_message(second.sock, (GET,))
            assert recv_message(second.sock)[0] == SHARD  # the requeued shard
            second.close()  # death #2: over the cap -> poisoned

            runner.join(timeout=60)
            assert not runner.is_alive()
        assert "poisoned" in box["error"]

    def test_explicitly_empty_cache_dir_is_not_overridden(self, tmp_path):
        """REPRO_CACHE_DIR= (explicitly empty) keeps the worker's store
        off while the coordinator has one: the directory holds exactly
        the cells the coordinator published, and nothing else."""
        store_dir = tmp_path / "store"
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=6.0, disk_cache_dir=store_dir
        ) as daemon, _backend(daemon) as backend:
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
            results = backend.evaluate_batch(_requests())
            # One worker, which completed every shard and is stopped
            # only by the daemon's close: no early death.
            assert _early_deaths(daemon) == 0
        assert all(r.ok or r.error for r in results)
        assert sorted(path.name for path in store_dir.iterdir()) == sorted(
            f"result-{cell_key(request)}.cell" for request in _requests()
        )
        assert worker.wait(timeout=30) == 0

    def test_poisoned_shard_fails_the_sweep(self, daemon):
        """A worker-reported crash (FAIL) must fail the sweep rather
        than requeue a deterministically crashing shard forever."""

        def sabotage():
            fake = _FakeWorker(daemon.port)
            fake.handshake()
            message = fake.pull_shard()
            send_message(fake.sock, (FAIL, message[1], "synthetic engine crash"))
            fake.close()

        saboteur = threading.Thread(target=sabotage)
        saboteur.start()
        with pytest.raises(ClusterError, match="synthetic engine crash"):
            _backend(daemon).evaluate_batch(_requests())
        saboteur.join(timeout=30)


class TestHandshake:
    def test_stale_protocol_version_refused(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as sock:
            send_message(sock, (HELLO, MAGIC, PROTOCOL_VERSION + 1, {}))
            reply = recv_message(sock)
        assert reply[0] == REJECT
        assert "protocol version" in reply[1]
        # the coordinator survives and still welcomes a current worker
        fresh = _FakeWorker(daemon.port)
        assert fresh.handshake()[0] == WELCOME
        fresh.close()

    def test_wrong_magic_refused(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as sock:
            send_message(sock, (HELLO, "other-protocol", PROTOCOL_VERSION, {}))
            reply = recv_message(sock)
        assert reply[0] == REJECT
        assert "magic" in reply[1]

    def test_non_hello_refused(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as sock:
            send_message(sock, (GET,))
            reply = recv_message(sock)
        assert reply[0] == REJECT

    def test_welcome_advertises_no_cache_dir(self, tmp_path):
        """Workers keep their own store setting: WELCOME carries only
        the heartbeat interval, whatever the coordinator's directory."""
        with ServiceDaemon("127.0.0.1", 0, disk_cache_dir=tmp_path) as daemon:
            fake = _FakeWorker(daemon.port)
            welcome = fake.handshake()
            fake.close()
        assert list(welcome[1]) == ["heartbeat_interval"]
        assert welcome[1]["heartbeat_interval"] > 0

    def test_rejected_worker_exits_with_code_2(self):
        """The worker entrypoint surfaces a handshake REJECT as exit 2."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def refuse():
            conn, _ = listener.accept()
            recv_message(conn)
            send_message(conn, (REJECT, "stale protocol (synthetic)"))
            conn.close()

        refuser = threading.Thread(target=refuse)
        refuser.start()
        logged: list[str] = []
        code = run_worker(f"127.0.0.1:{port}", log=logged.append)
        refuser.join(timeout=30)
        listener.close()
        assert code == 2
        assert any("stale protocol" in line for line in logged)

    def test_silent_coordinator_fails_the_handshake(self):
        """A peer that accepts but never answers HELLO fails the worker's
        handshake within the connect timeout instead of hanging it."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30)
        port = listener.getsockname()[1]
        logged: list[str] = []
        codes: list[int] = []
        worker = threading.Thread(
            target=lambda: codes.append(
                run_worker(
                    f"127.0.0.1:{port}",
                    backend_spec="serial",
                    connect_timeout=1.0,
                    reconnect_timeout=0,
                    log=logged.append,
                )
            ),
            daemon=True,
        )
        accepted: list[socket.socket] = []
        try:
            worker.start()
            accepted.append(listener.accept()[0])
            worker.join(timeout=10)
            assert not worker.is_alive(), "worker still waiting for WELCOME"
            assert codes == [1]
            assert any("handshake failed" in line for line in logged)
        finally:
            for conn in accepted:
                conn.close()  # a still-blocked worker sees EOF and exits
            listener.close()
            worker.join(timeout=30)

    def test_unreachable_coordinator_exits_with_code_1(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        free_port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        code = run_worker(
            f"127.0.0.1:{free_port}", connect_timeout=0.3, log=lambda *_: None
        )
        assert code == 1


class TestProtocol:
    def test_frame_roundtrip(self):
        import pickle
        import struct

        frame = encode_message((SHARD, 7, ["payload"]))
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert pickle.loads(frame[4:]) == (SHARD, 7, ["payload"])

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        with a, b:
            frame = encode_message((GET,))
            a.sendall(frame[: len(frame) - 1])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame|payload"):
                recv_message(b)

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        with a, b:
            a.close()
            assert recv_message(b) is None

    def test_parse_address(self):
        assert parse_address("7077") == ("", 7077)
        assert parse_address(":7077") == ("", 7077)
        assert parse_address("node1:7077") == ("node1", 7077)
        assert parse_address("8000", default_host="127.0.0.1") == (
            "127.0.0.1",
            8000,
        )
        with pytest.raises(ValueError):
            parse_address("host:notaport")
        with pytest.raises(ValueError):
            parse_address("host:70777")


class TestResolveClusterSpec:
    def test_invalid_specs(self):
        """There is no ``cluster:`` tier: every such spec is unknown, and
        the refusal names the three spec kinds there are."""
        for spec in ("cluster:7077", "cluster:nota:port"):
            with pytest.raises(ValueError, match="cluster") as excinfo:
                resolve_backend(spec)
            message = str(excinfo.value)
            assert message.startswith("unknown backend spec")
            for kind in ("'serial'", "'process[:N]'", "'service:[host:]port[:priority]'"):
                assert kind in message
        with pytest.raises(ValueError, match="unknown backend spec"):
            resolve_backend("cluster:127.0.0.1:0", shards=4)

    def test_worker_refuses_cluster_backend(self):
        with pytest.raises(ValueError, match="unknown backend spec"):
            run_worker("127.0.0.1:1", backend_spec="cluster:0")

    def test_worker_validates_spec_before_connecting(self, daemon):
        """A typo'd local spec must fail before the worker handshakes
        (and would otherwise count towards wait_for_workers)."""
        with pytest.raises(ValueError, match="unknown backend spec"):
            run_worker(
                f"127.0.0.1:{daemon.port}",
                backend_spec="proces:8",
                log=lambda *_: None,
            )
        assert daemon.num_workers == 0  # it never even connected


class TestClusterCLI:
    def test_work_requires_connect(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["work"])

    def test_cli_rejects_bad_cluster_spec(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["figure8", "--fast", "--backend", "cluster:nope"])
