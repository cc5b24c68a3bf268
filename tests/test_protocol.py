"""Tests of the wire format: zero-copy array segments + pinned pickle.

Version 4 splits array-carrying messages into a pickled header plus raw
npy-framed segments (PEP 574 out-of-band buffers), so NumPy arrays cross
the socket without a serialisation copy.  Messages without arrays — and
in particular the HELLO handshake — stay plain pickles, which is what
lets mismatched peers exchange a clean REJECT instead of a parse error.

The blocking peers' transport is pinned too: ``TCP_NODELAY`` on every
socket :func:`connect_with_retry` opens, and one ``sendall`` per frame,
so no part of a frame waits on the daemon's delayed ACK.  Frames the
daemon cannot decode, or whose fields have the wrong type, close the
connection without an unhandled exception; a frame the worker or a
job's result stream cannot act on is a protocol error there too.
"""

from __future__ import annotations

import functools
import logging
import pickle
import socket
import struct
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CartesianGrid, NodeAllocation, nearest_neighbor
from repro.engine import EvaluationEngine, MappingRequest
from repro.engine.cluster.protocol import (
    CHALLENGE,
    GET,
    HELLO,
    JOB_DONE,
    JOB_FAIL,
    JOB_RESULT,
    MAGIC,
    MAX_FRAME_BYTES,
    MAX_HANDSHAKE_BYTES,
    PING,
    PROTOCOL_VERSION,
    REJECT,
    RESULT,
    SHARD,
    SHUTDOWN,
    SUBMIT,
    SUBMITTED,
    WELCOME,
    WIRE_PICKLE_PROTOCOL,
    ProtocolError,
    client_tls_context,
    connect_with_retry,
    decode_payload,
    encode_frames,
    encode_message,
    hello,
    recv_message,
    send_message,
)
from repro.engine.cluster.coordinator import Coordinator, _Shard
from repro.engine.cluster.worker import _result_rows, run_worker
from repro.engine.diskcache import DiskStore, cell_key, decode_cell, encode_cell
from repro.exceptions import ServiceError
from repro.service import ServiceBackend, ServiceClient, ServiceDaemon
from repro.service.client import _decode_rows

from .test_backends import _requests, _signature, _weighted_requests
from .test_cluster import _spawn_worker


def _payload(message: tuple) -> bytes:
    """The framed payload of *message*, header stripped."""
    return encode_message(message)[4:]


def _roundtrip(message: tuple) -> tuple:
    return decode_payload(_payload(message))


class TestSegmentedEncoding:
    def test_plain_messages_stay_plain_pickle(self):
        for message in [("ping",), (HELLO, MAGIC, 4, {"pid": 1}),
                        ("fail", 3, [("a", 1.5)])]:
            payload = _payload(message)
            assert payload[0] == 0x80  # pickle PROTO opcode
            assert pickle.loads(payload) == message
            assert decode_payload(payload) == message

    def test_array_messages_become_segmented(self):
        arr = np.arange(6000, dtype=np.int64).reshape(-1, 2)
        payload = _payload((SHARD, 7, [arr]))
        assert payload[0] == 0x93  # npy magic, never a pickle opcode

    def test_array_roundtrip_is_byte_identical(self):
        rng = np.random.default_rng(3)
        arrays = [
            np.arange(5000, dtype=np.int64).reshape(-1, 2),
            rng.uniform(size=(7, 11)),
            np.array([], dtype=np.float32),
            rng.integers(0, 9, size=(3, 4, 5), dtype=np.int32),
        ]
        kind, sid, items = _roundtrip((SHARD, 9, arrays))
        assert (kind, sid) == (SHARD, 9)
        for sent, received in zip(arrays, items):
            assert sent.dtype == received.dtype
            assert sent.shape == received.shape
            assert sent.tobytes() == received.tobytes()

    def test_decoded_arrays_are_read_only_views(self):
        arr = np.arange(4096, dtype=np.int64)
        _, received = _roundtrip(("m", arr))
        assert not received.flags.writeable

    def test_header_excludes_array_bytes(self):
        """The pickled header of a large-array frame is tiny: the array
        travels as a raw segment, not inside the pickle."""
        arr = np.arange(1 << 16, dtype=np.int64)
        frames = encode_frames((SHARD, 1, [arr]))
        total = sum(len(bytes(part)) for part in frames[1:])
        header = bytes(frames[2])  # [length][magic+hlen][header][segments...]
        assert header[0] == 0x80 and len(header) < 1024
        assert arr.tobytes() not in header
        assert total >= arr.nbytes  # the raw segment carries the bytes

    def test_noncontiguous_arrays_fall_back_in_band(self):
        arr = np.arange(64, dtype=np.int64).reshape(8, 8)[:, ::2]
        _, received = _roundtrip(("m", arr))
        assert received.tobytes() == arr.tobytes()

    def test_nested_containers_roundtrip(self):
        arr = np.arange(3000, dtype=np.int64)
        message = ("m", {"xs": [arr, {"inner": arr[:5]}]}, (1, "two"))
        decoded = _roundtrip(message)
        assert decoded[0] == "m" and decoded[2] == (1, "two")
        assert decoded[1]["xs"][0].tobytes() == arr.tobytes()
        assert decoded[1]["xs"][1]["inner"].tolist() == [0, 1, 2, 3, 4]

    def test_hello_always_plain_pickle_and_pinned(self):
        message = hello({"pid": 42})
        payload = _payload(message)
        assert payload[0] == 0x80
        assert message[3]["pickle"] == WIRE_PICKLE_PROTOCOL
        assert message[2] == PROTOCOL_VERSION == 7

    def test_socket_roundtrip(self):
        """send_message/recv_message carry a segmented frame intact."""
        left, right = socket.socketpair()
        try:
            arr = np.arange(10000, dtype=np.int64).reshape(-1, 2)
            send_message(left, (SHARD, 5, [arr]))
            message = recv_message(right)
        finally:
            left.close()
            right.close()
        assert message[0] == SHARD and message[1] == 5
        assert message[2][0].tobytes() == arr.tobytes()


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


@pytest.fixture
def listener():
    """A bound, listening TCP socket that accepts nothing."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(4)
    yield sock
    sock.close()


class TestNoDelay:
    """Nagle's algorithm is off on every blocking peer socket.

    With it on, a peer's small frames wait for the daemon's delayed ACK
    (up to ~40 ms per shard and per RPC).
    """

    def test_plain_connect_sets_nodelay(self, listener):
        sock = connect_with_retry("127.0.0.1", listener.getsockname()[1], 5.0)
        with sock:
            assert _nodelay(sock)

    def test_tls_connect_sets_nodelay(self, tls_files):
        cert, key = tls_files
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, tls_cert=cert, tls_key=key
        ) as daemon:
            sock = connect_with_retry(
                "127.0.0.1",
                daemon.port,
                5.0,
                ssl_context=client_tls_context(cert),
            )
            with sock:
                assert sock.version() is not None  # TLS handshake done
                assert _nodelay(sock)

    def test_service_client_socket_sets_nodelay(self, listener):
        client = ServiceClient(
            "127.0.0.1", listener.getsockname()[1], connect_timeout=5.0
        )
        sock = client._open_socket()
        with sock:
            assert _nodelay(sock)


class _RecordingSocket:
    """A socket stand-in recording each ``sendall``; it has no other
    write method, so a frame written any other way fails loudly."""

    def __init__(self):
        self.writes: list[bytes] = []

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))


def _same(sent, received) -> bool:
    if isinstance(sent, np.ndarray):
        return (
            isinstance(received, np.ndarray)
            and sent.dtype == received.dtype
            and sent.shape == received.shape
            and sent.tobytes() == received.tobytes()
        )
    if isinstance(sent, (tuple, list)):
        return (
            type(sent) is type(received)
            and len(sent) == len(received)
            and all(map(_same, sent, received))
        )
    return sent == received


class TestOneWritePerFrame:
    """``send_message`` hands each frame to the socket in one write."""

    @pytest.mark.parametrize(
        "message, parts",
        [
            ((PING,), 2),
            ((SHARD, 5, [np.arange(2000, dtype=np.int64).reshape(-1, 2)]), 5),
            (
                (
                    RESULT,
                    9,
                    [
                        (i, encode_cell((np.arange(i, i + 4), None, None, {})))
                        for i in range(600)
                    ],
                ),
                602,
            ),
        ],
        ids=["ping", "shard-one-array", "600-cells"],
    )
    def test_one_sendall_per_message(self, message, parts):
        assert len(encode_frames(message)) == parts
        sock = _RecordingSocket()
        send_message(sock, message)
        assert len(sock.writes) == 1
        (frame,) = sock.writes
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert _same(message, decode_payload(frame[4:]))


class TestHandshakePinning:
    def test_pickle_mismatch_rejected(self):
        """A peer speaking another pickle protocol gets a clean REJECT."""
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                send_message(
                    sock, (HELLO, MAGIC, PROTOCOL_VERSION, {"pickle": 4})
                )
                reply = recv_message(sock)
        assert reply[0] == REJECT
        assert "pickle protocol mismatch" in reply[1]

    def test_missing_pickle_key_rejected(self):
        """Hand-rolled HELLOs without the pin are refused too."""
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                send_message(sock, (HELLO, MAGIC, PROTOCOL_VERSION, {}))
                reply = recv_message(sock)
        assert reply[0] == REJECT

    def test_pinned_hello_welcomed(self):
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=30
            ) as sock:
                send_message(sock, hello({"pid": 1}))
                reply = recv_message(sock)
        assert reply[0] == WELCOME


class TestMalformedFrames:
    """A frame the daemon cannot use closes its connection quietly: no
    unhandled exception reaches asyncio, the daemon keeps serving, and
    the close counts once under ``protocol_errors`` in the STATUS and
    METRICS ``pool`` sections."""

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return struct.pack(">I", len(payload)) + payload

    @staticmethod
    def _closed(sock: socket.socket) -> bool:
        try:
            return sock.recv(1) == b""
        except ConnectionResetError:
            return True

    def _check(self, caplog, send) -> None:
        caplog.set_level(logging.WARNING, logger="asyncio")
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0
        ) as daemon, ServiceClient("127.0.0.1", daemon.port) as client:
            before = client.metrics()["pool"]["protocol_errors"]
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=10
            ) as sock:
                send(sock)
                assert self._closed(sock)
            metrics = client.metrics()
            assert metrics["jobs"] == []
            assert metrics["pool"]["protocol_errors"] == before + 1
            assert client.status_full()["pool"]["protocol_errors"] == before + 1
        errors = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []

    @pytest.mark.parametrize(
        "payload",
        [
            b"not a pickle",
            pickle.dumps(hello({"pid": 1}), protocol=WIRE_PICKLE_PROTOCOL)[:-5],
            b"\x93" + struct.pack(">I", 3) + b"xyz",
        ],
        ids=["non-pickle", "truncated-pickle", "bad-segment-header"],
    )
    def test_undecodable_first_frame(self, caplog, payload):
        self._check(caplog, lambda sock: sock.sendall(self._frame(payload)))

    @pytest.mark.parametrize("role", ["worker", "client"])
    def test_undecodable_frame_after_the_handshake(self, caplog, role):
        def send(sock: socket.socket) -> None:
            send_message(sock, hello({"role": role}))
            assert recv_message(sock)[0] == WELCOME
            sock.sendall(self._frame(b"not a pickle"))

        self._check(caplog, send)

    def test_non_integer_priority(self, caplog):
        def send(sock: socket.socket) -> None:
            send_message(sock, hello({"role": "client"}))
            assert recv_message(sock)[0] == WELCOME
            send_message(sock, (SUBMIT, [[(0, "opaque")]], {"priority": "urgent"}))

        self._check(caplog, send)

    def test_oversized_hello_is_refused_unread(self, caplog):
        """A peer that has not authenticated may not announce a large
        frame: the daemon closes at once, well before its 30 s heartbeat
        timeout and without waiting for the payload."""
        start = time.monotonic()
        header = struct.pack(">I", MAX_FRAME_BYTES)
        self._check(caplog, lambda sock: sock.sendall(header))
        assert time.monotonic() - start < 5.0

    def test_oversized_auth_is_refused_unread(self):
        with ServiceDaemon(
            "127.0.0.1", 0, heartbeat_timeout=30.0, secret="s3cret"
        ) as daemon:
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=10
            ) as sock:
                send_message(sock, hello({"role": "client"}))
                assert recv_message(sock)[0] == CHALLENGE
                sock.sendall(struct.pack(">I", MAX_HANDSHAKE_BYTES + 1))
                assert recv_message(sock)[0] == REJECT
                assert self._closed(sock)
            assert daemon.metrics()["pool"]["protocol_errors"] == 1

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x80", b"\x93" + struct.pack(">I", 9) + b"xyz"],
        ids=["empty", "lone-proto-opcode", "segment-past-the-end"],
    )
    def test_decode_payload_raises_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            decode_payload(payload)


class TestMalformedFramesToPeers:
    """A frame a blocking peer cannot act on is a protocol error, never
    a traceback or a skipped frame: the worker logs it and exits 2, as
    on a rejected handshake (its coordinator would send it again), and
    a job's result stream raises ``ServiceError``.  Each case plays the
    far side by hand, and bounds its wait, so a peer that skips the
    frame and waits on fails the case instead of hanging the suite."""

    @staticmethod
    def _serve_one(listener: socket.socket, peer: threading.Thread, script):
        """Accept *peer*'s connection, run *script* on it, then wait up
        to 10 s for *peer* to finish; closing the connection afterwards
        releases a peer that is still waiting."""
        listener.settimeout(30)
        peer.start()
        try:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(30)
                assert recv_message(conn)[0] == HELLO
                send_message(conn, (WELCOME, {"heartbeat_interval": 60}))
                script(conn)
                peer.join(timeout=10)
                assert not peer.is_alive(), "the peer waited past the frame"
        finally:
            peer.join(timeout=30)

    @pytest.mark.parametrize(
        "frame",
        [
            42,
            (),
            (SHARD,),
            (SHARD, "7", []),
            (SHARD, 7, "items"),
            (SHUTDOWN, 0),
            ("bogus",),
            (np.arange(3),),
        ],
        ids=[
            "int",
            "empty",
            "bare-shard",
            "str-shard-id",
            "str-items",
            "shutdown-arg",
            "unknown-kind",
            "array-kind",
        ],
    )
    def test_worker_exits_2(self, listener, frame):
        port = listener.getsockname()[1]
        logged: list[str] = []
        codes: list[object] = []

        def work() -> None:
            try:
                codes.append(
                    run_worker(
                        f"127.0.0.1:{port}",
                        backend_spec="serial",
                        connect_timeout=10,
                        reconnect_timeout=0,
                        log=logged.append,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - the case's outcome
                codes.append(exc)

        def script(conn: socket.socket) -> None:
            assert recv_message(conn) == (GET,)
            send_message(conn, frame)

        worker = threading.Thread(target=work, daemon=True)
        self._serve_one(listener, worker, script)
        assert codes == [2]
        assert any("malformed frame" in line for line in logged), logged

    @pytest.mark.parametrize(
        "frame",
        [
            42,
            (),
            (JOB_RESULT, "job-1"),
            (JOB_RESULT, "job-1", "0", []),
            (JOB_FAIL, "job-1"),
            (JOB_DONE,),
            ("bogus",),
            (np.arange(3),),
        ],
        ids=[
            "int",
            "empty",
            "short-result",
            "str-shard-id",
            "short-fail",
            "bare-done",
            "unknown-kind",
            "array-kind",
        ],
    )
    def test_job_stream_raises_service_error(self, listener, frame):
        port = listener.getsockname()[1]
        outcome: list[object] = []

        def consume() -> None:
            client = ServiceClient("127.0.0.1", port, connect_timeout=10)
            try:
                with client.submit([[(0, "opaque")]]) as handle:
                    outcome.extend(handle.results())
                outcome.append("drained")
            except Exception as exc:  # noqa: BLE001 - the case's outcome
                outcome.append(exc)

        def script(conn: socket.socket) -> None:
            assert recv_message(conn)[0] == SUBMIT
            send_message(conn, (SUBMITTED, "job-1", [0]))
            # pickled as v6 sent every frame: the JOB_RESULT cases are
            # frames the results layout cannot even express
            payload = pickle.dumps(frame, protocol=WIRE_PICKLE_PROTOCOL)
            conn.sendall(struct.pack(">I", len(payload)) + payload)

        consumer = threading.Thread(target=consume, daemon=True)
        self._serve_one(listener, consumer, script)
        (error,) = outcome
        assert isinstance(error, ServiceError), error
        assert "malformed frame" in str(error)


class TestWorkerRoundTrip:
    def test_array_requests_byte_identical_across_real_worker(self):
        """Explicit-permutation requests cross a worker subprocess intact.

        The perm arrays ride the v4 segmented path out (SHARD) and the
        result perms ride it back; both directions must be byte-exact
        against the in-process engine.
        """
        grid = CartesianGrid([6, 4])
        alloc = NodeAllocation.homogeneous(4, 6)
        stencil = nearest_neighbor(2)
        rng = np.random.default_rng(17)
        requests = [
            MappingRequest(
                grid, stencil, alloc, "blocked",
                perm=rng.permutation(grid.size),
            )
            for _ in range(6)
        ]
        serial = EvaluationEngine(max_workers=1).evaluate_batch(requests)
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            worker = _spawn_worker(daemon.port)
            try:
                daemon.wait_for_workers(1, timeout=60)
                with ServiceBackend("127.0.0.1", daemon.port) as backend:
                    results = backend.evaluate_batch(requests)
            finally:
                worker.terminate()
                worker.wait(timeout=30)
        assert [_signature(r) for r in results] == [
            _signature(r) for r in serial
        ]

    def test_generic_sweep_byte_identical_across_real_worker(self):
        requests = _requests()
        serial = EvaluationEngine(max_workers=1).evaluate_batch(requests)
        with ServiceDaemon("127.0.0.1", 0) as daemon:
            worker = _spawn_worker(daemon.port)
            try:
                daemon.wait_for_workers(1, timeout=60)
                with ServiceBackend("127.0.0.1", daemon.port) as backend:
                    results = backend.evaluate_batch(requests)
            finally:
                worker.terminate()
                worker.wait(timeout=30)
        assert [_signature(r) for r in results] == [
            _signature(r) for r in serial
        ]


# ----------------------------------------------------------------------
# Fuzzing the results layout
# ----------------------------------------------------------------------
@functools.cache
def _fuzz_shard() -> tuple[list, list]:
    """``(items, rows)`` of one real shard: mapped cells with a metric
    column, and a mapper's rejection (nodecart on uneven nodes)."""
    requests = [
        *_weighted_requests()[:2],
        MappingRequest(
            CartesianGrid([5, 7]),
            nearest_neighbor(2),
            NodeAllocation([5, 10, 20]),
            "nodecart",
        ),
    ]
    items = list(enumerate(requests))
    results = EvaluationEngine(max_workers=1).evaluate_batch(requests)
    return items, _result_rows(items, results)


def _cell_values(cell: tuple) -> tuple:
    perm, cost, error, metrics = cell
    return (
        None if perm is None else (perm.dtype.str, perm.tobytes()),
        None if cost is None else (
            cost.jsum, cost.jmax, cost.total_edges, cost.bottleneck_node,
            cost.per_node.dtype.str, cost.per_node.tobytes(),
        ),
        error,
        repr(metrics),
    )


def _sent_values() -> list:
    return [_cell_values(decode_cell(cell)) for _, cell in _fuzz_shard()[1]]


#: (offset, width) of the cell header fields the fuzzer overwrites:
#: magic, version, flags, the two dtype strings, the four lengths.
_CELL_FIELDS = [
    (0, 4), (8, 4), (12, 4), (80, 8), (88, 8),
    (96, 8), (104, 8), (112, 8), (120, 8),
]

#: Values the fuzzer writes into a field (cut or NUL-padded to it).
_FIELD_VALUES = st.sampled_from(
    [
        b"\0" * 8,
        b"\xff" * 8,  # -1, or 2**64 - 1
        b"\x7f" + b"\xff" * 7,
        b"\0\0\0\x80\0\0\0\0",
        b"RCEL",
        b"\x01",
        b"\x03",
        b"<i3",  # not a NumPy dtype
        b"|O8",  # objects
        b"<M8",  # datetimes
        b"<f8",  # valid, but not the sent one
        b"<i4",
        b"abcdefgh",
    ]
) | st.binary(min_size=1, max_size=8)


def _mutate(data, payload: bytes, fields: list[tuple[int, int]]) -> bytes:
    """*payload* truncated, with a bit flipped, with trailing bytes, or
    with one of *fields* overwritten."""
    how = data.draw(st.sampled_from(["truncate", "flip", "trailing", "field"]))
    if how == "truncate":
        return payload[: data.draw(st.integers(0, len(payload) - 1))]
    if how == "flip":
        at = data.draw(st.integers(0, len(payload) - 1))
        bit = 1 << data.draw(st.integers(0, 7))
        return payload[:at] + bytes([payload[at] ^ bit]) + payload[at + 1:]
    if how == "trailing":
        return payload + data.draw(st.binary(min_size=1, max_size=16))
    at, width = data.draw(st.sampled_from(fields))
    value = data.draw(_FIELD_VALUES)[:width].ljust(width, b"\0")
    return payload[:at] + value + payload[at + width:]


def _frame_fields(payload: bytes, job: str) -> list[tuple[int, int]]:
    """The header, row table and cell header fields of a results payload."""
    rows = _fuzz_shard()[1]
    table = 16 + len(job.encode())
    fields = [(1, 1), (2, 8), (10, 2), (12, 4)]  # kind, shard, job id, rows
    start = table + 12 * len(rows)
    for i, (_, cell) in enumerate(rows):
        fields += [(table + 12 * i, 8), (table + 12 * i + 8, 4)]
        fields += [(start + at, width) for at, width in _CELL_FIELDS]
        start += len(cell)
    assert start == len(payload)
    return fields


class TestResultsLayoutFuzz:
    """Mangled RESULT and JOB_RESULT payloads are refused, never
    misread: a client gets ``ProtocolError`` (its job stream raises
    ``ServiceError``), the daemon a ``ProtocolError`` from decoding or
    from checking the rows (a counted close), and the store a counted
    miss.  Anything accepted decodes to exactly the cells sent; row
    indices sit outside the cells, and ``ServiceBackend`` checks them
    against its shards."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_mangled_job_result_is_a_protocol_error(self, data):
        job = "job-000042"
        payload = encode_message((JOB_RESULT, job, 7, _fuzz_shard()[1]))[4:]
        mangled = _mutate(data, payload, _frame_fields(payload, job))
        try:
            message = decode_payload(mangled)
            assert message[0] == JOB_RESULT
            rows = _decode_rows(message[3])
        except ProtocolError:
            return
        assert [_cell_values(row[1:]) for row in rows] == _sent_values()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_mangled_result_is_refused_by_the_daemon(self, data):
        items, rows = _fuzz_shard()
        keys = [cell_key(request) for _, request in items]
        payload = encode_message((RESULT, 7, rows))[4:]
        mangled = _mutate(data, payload, _frame_fields(payload, ""))
        try:
            message = decode_payload(mangled)
            assert message[0] == RESULT
            Coordinator._check_rows(_Shard(7, items, None, keys), message[2])
        except ProtocolError:
            return
        assert [_cell_values(decode_cell(c)) for _, c in message[2]] == _sent_values()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.integers(0, 2))
    def test_a_mangled_cell_file_is_a_counted_miss(self, data, which):
        items, rows = _fuzz_shard()
        key = cell_key(items[which][1])
        mangled = _mutate(data, rows[which][1], _CELL_FIELDS)
        with tempfile.TemporaryDirectory() as directory:
            store = DiskStore(directory)
            with open(f"{directory}/result-{key}.cell", "wb") as handle:
                handle.write(mangled)
            cell = store.load(key)
            corrupt = store.stats().corrupt
        if cell is None:
            assert corrupt == 1
        else:
            assert _cell_values(cell) == _sent_values()[which]

    def test_every_flipped_perm_byte_fails_the_crc(self):
        """A perm byte is plain data to every check but the CRC."""
        items, rows = _fuzz_shard()
        perm_bytes = decode_cell(rows[0][1])[0].nbytes
        payload = encode_message((JOB_RESULT, "job-1", 7, rows[:1]))[4:]
        perm_at = len(payload) - len(rows[0][1]) + 128
        for at in range(perm_at, perm_at + perm_bytes, 7):
            flipped = payload[:at] + bytes([payload[at] ^ 1]) + payload[at + 1:]
            with pytest.raises(ProtocolError, match="CRC"):
                _decode_rows(decode_payload(flipped)[3])
