"""Wire protocol of the socket cluster.

Frames are a 4-byte big-endian length prefix followed by the message
payload; messages are plain tuples whose first element is one of the
kind constants below.  The payload comes in three layouts,
distinguished by its first byte:

* ``0x52`` — the *results* layout (v7) of ``RESULT`` and
  ``JOB_RESULT``: each row travels as its cell index plus the cell's
  ``.cell`` bytes, the layout :class:`~repro.engine.diskcache.DiskStore`
  writes (header with key and CRC-32, raw arrays, JSON metrics; see
  :mod:`repro.engine.diskcache`)::

      0x52 | u8 kind | >q shard_id | >H job_id_len | >I rows
           | job_id (UTF-8; empty in a RESULT)
           | (>q index | >I cell_len)*rows | cell bytes, in row order

  Plain data, never a pickle: one codec carries a cell on disk, in the
  service daemon's memory and on the wire, so the daemon checks a
  worker's cells and stores them as received, and answers a stored
  cell by splicing bytes it already holds.  A cell whose request has
  no content key carries the all-zero key.
* ``0x80`` (the pickle ``PROTO`` opcode) — a plain pickle, used for
  every other message that carries no array buffers (handshakes,
  heartbeats, control traffic).  Handshake messages therefore stay
  parseable by older and newer peers alike, so version mismatches are
  answered with a clean ``REJECT`` instead of a mid-frame crash.
* ``0x93`` (the npy magic byte) — a *segmented* payload: the pickle of
  the message with its buffers extracted out-of-band (PEP 574),
  followed by the raw buffer segments::

      0x93 | >I header_len | pickled header | (>I seg_len | raw bytes)*

  NumPy arrays anywhere in the message — shard permutations,
  explicit-perm requests — serialize as raw framed segments instead of
  being copied into the pickle stream, and decode as zero-copy
  (read-only) views over the received payload.

The blocking peers (worker and service client) turn Nagle's algorithm
off (``TCP_NODELAY``) on the TCP sockets :func:`connect_with_retry`
opens, and :func:`send_message` writes each frame with one ``sendall``
of the joined frame, so no part of a request waits on the daemon's
delayed ACK.  The daemon's asyncio transports set ``TCP_NODELAY``
themselves, and :func:`write_message` hands each frame over in one
``writelines`` call.

The pickle protocol of the stream is pinned to
:data:`WIRE_PICKLE_PROTOCOL` (not ``pickle.HIGHEST_PROTOCOL``, which
varies by interpreter) and advertised in the HELLO ``info`` dict under
``"pickle"``; coordinators reject peers pickling at a different
protocol during the handshake instead of failing mid-sweep.

The handshake pins compatibility: a peer opens with
``(HELLO, MAGIC, PROTOCOL_VERSION, info)`` and the coordinator answers
``(WELCOME, settings)`` or ``(REJECT, reason)``.  ``info["role"]``
declares the peer's side of the protocol — ``"worker"`` (the default)
pulls shards, ``"client"`` submits jobs to a standing service daemon
(:mod:`repro.service`).  ``PROTOCOL_VERSION`` must be bumped whenever a
message shape changes, so a stale peer build is refused at connect time
instead of corrupting a sweep.

When the coordinator is configured with a shared secret (``--secret``
or the ``REPRO_CLUSTER_SECRET`` environment variable), the HELLO is
answered with ``(CHALLENGE, nonce)`` and the peer must reply
``(AUTH, hmac_sha256(secret, nonce))`` before any work is exchanged; a
missing or mismatched digest is rejected with a clear message.  The
secret authenticates, it does not encrypt.

For encryption the transport can run over TLS: the coordinator loads a
certificate/key pair (``--tls-cert``/``--tls-key``) and peers wrap
their sockets against a trust root (``--tls-ca`` — for a self-signed
deployment, the coordinator's own certificate).  The frame layout is
unchanged; TLS wraps the byte stream underneath it, and cleartext
remains the default.  Client-side contexts verify the server
certificate against the CA but skip hostname checks (lab deployments
address coordinators by IP; the private CA *is* the identity), and a
peer certificate/key pair can be loaded for mutual TLS when the server
context is built with a CA of its own.  The ``REPRO_TLS_CERT`` /
``REPRO_TLS_KEY`` / ``REPRO_TLS_CA`` environment variables supply
defaults wherever the flags are accepted, so spec strings like
``--backend service:host:port`` work over TLS unchanged.

Security note: result frames are plain data, but every other frame is
still a pickle, and like ``multiprocessing`` pipes the protocol
deserializes those from its peers (HELLO and AUTH under
:data:`MAX_HANDSHAKE_BYTES`).  Bind coordinators on trusted networks
only (e.g. a cluster's private interconnect, or localhost through an
SSH tunnel); the shared secret keeps stray or mistaken peers out, it is
not a substitute for network-level isolation.

Message catalogue (worker ``->`` coordinator unless noted):

==========  ==========================================================
``HELLO``   ``(HELLO, MAGIC, PROTOCOL_VERSION, info: dict)`` — info
            carries ``role`` (``"worker"``/``"client"``)
``CHALLENGE`` coordinator: ``(CHALLENGE, nonce: str)`` — sent instead
            of WELCOME when a shared secret is required
``AUTH``    ``(AUTH, digest: str)`` — the HMAC-SHA256 response to a
            CHALLENGE (see :func:`auth_digest`)
``WELCOME`` coordinator: ``(WELCOME, settings: dict)`` — settings carry
            ``heartbeat_interval`` (seconds between peer pings)
``REJECT``  coordinator: ``(REJECT, reason: str)``; the connection is
            closed afterwards
``GET``     ``(GET,)`` — the work-stealing pull: hand me the next shard
            (a worker sends its next one before evaluating a shard)
``SHARD``   coordinator: ``(SHARD, shard_id, [(index, request), ...])``
``RESULT``  ``(RESULT, shard_id, [(index, cell), ...])`` — one row
            per shard item, in item order, in the results layout
``FAIL``    ``(FAIL, shard_id, message)`` — the shard crashed the
            worker's engine; requeueing would loop, so the sweep fails
``PING``    ``(PING,)`` — heartbeat, sent while idle and mid-shard
``SHUTDOWN`` coordinator: ``(SHUTDOWN,)`` — no more work, exit cleanly
==========  ==========================================================

Client message set (client ``->`` service daemon unless noted; see
:mod:`repro.service` for the session semantics):

=============== =====================================================
``SUBMIT``      ``(SUBMIT, [shard_items, ...], options: dict)`` —
                options carry ``priority`` (int, larger is more
                urgent) and ``label`` (str, for status listings)
``SUBMITTED``   daemon: ``(SUBMITTED, job_id, [shard_id, ...])``
``REJECTED``    daemon: ``(REJECTED, reason: str)`` — the submission
                was refused by admission control (per-client quota);
                the session stays open for further messages
``JOB_RESULT``  daemon: ``(JOB_RESULT, job_id, shard_id, [(index,
                cell), ...])`` — one shard's rows, in the results
                layout; the client decodes each cell
``JOB_FAIL``    daemon: ``(JOB_FAIL, job_id, shard_id, message)`` —
                the job failed; its remaining shards are withdrawn
``JOB_DONE``    daemon: ``(JOB_DONE, job_id)`` — every shard streamed
``JOB_CANCELLED`` daemon: ``(JOB_CANCELLED, job_id)`` — cancelled (by
                this client or any other connection)
``STATUS``      ``(STATUS, job_id | None)`` — one job, or all jobs
``STATUS_REPLY`` daemon: ``(STATUS_REPLY, {"jobs": [...], "clients":
                [...], "pool": {...}})`` — job records plus per-client
                share/quota counters and worker-pool gauges
``CANCEL``      ``(CANCEL, job_id)``
``CANCEL_REPLY`` daemon: ``(CANCEL_REPLY, job_id, ok: bool)``
``METRICS``     ``(METRICS,)`` — ask for a machine-readable snapshot
                of the daemon (v6)
``METRICS_REPLY`` daemon: ``(METRICS_REPLY, doc: dict)`` — per-job
                progress/ETA, queue depth and age, per-tenant
                counters, worker-pool gauges and result-store hit
                rates; see ``Coordinator.metrics_snapshot``
=============== =====================================================
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import os
import pickle
import socket
import ssl
import struct
import threading
import time

__all__ = [
    "PROTOCOL_VERSION",
    "WIRE_PICKLE_PROTOCOL",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_HANDSHAKE_BYTES",
    "SECRET_ENV",
    "TLS_CERT_ENV",
    "TLS_KEY_ENV",
    "TLS_CA_ENV",
    "HELLO",
    "CHALLENGE",
    "AUTH",
    "WELCOME",
    "REJECT",
    "GET",
    "SHARD",
    "RESULT",
    "FAIL",
    "PING",
    "SHUTDOWN",
    "SUBMIT",
    "SUBMITTED",
    "REJECTED",
    "JOB_RESULT",
    "JOB_FAIL",
    "JOB_DONE",
    "JOB_CANCELLED",
    "STATUS",
    "STATUS_REPLY",
    "CANCEL",
    "CANCEL_REPLY",
    "METRICS",
    "METRICS_REPLY",
    "ProtocolError",
    "encode_message",
    "encode_frames",
    "decode_payload",
    "hello",
    "is_frame",
    "auth_digest",
    "resolve_secret",
    "resolve_tls",
    "server_tls_context",
    "client_tls_context",
    "connect_with_retry",
    "enable_keepalive",
    "handshake",
    "start_heartbeat",
    "send_message",
    "recv_message",
    "read_message",
    "write_message",
    "parse_address",
]

#: Bumped on every incompatible message-shape change.
#: v2: RESULT rows carry a fifth ``metrics`` element (pluggable
#: batch-level metric columns).
#: v3: shared-secret CHALLENGE/AUTH handshake leg, ``role`` in HELLO
#: info, and the client-side job message set (SUBMIT .. CANCEL_REPLY).
#: v4: zero-copy array transport — payloads carrying NumPy arrays use
#: the segmented npy-framed layout (raw buffer segments after the
#: pickled header) — and the pinned ``pickle`` protocol in HELLO info.
#: v5: multi-tenant service tier — ``REJECTED`` admission replies,
#: ``STATUS_REPLY`` carries a ``{"jobs", "clients", "pool"}`` document
#: instead of a bare record list, and client HELLO info may carry a
#: ``tenant`` identity for fair-share accounting.
#: v6: observability — the ``METRICS``/``METRICS_REPLY`` round-trip
#: exposing per-job progress/ETA, queue depth *and* age, per-tenant
#: counters, worker-pool gauges and result-store hit rates.
#: v7: ``RESULT`` and ``JOB_RESULT`` rows are ``(index, cell)``, each
#: cell the ``.cell`` bytes of the result store, in the results layout.
PROTOCOL_VERSION = 7

#: The pickle protocol of every frame.  Pinned (rather than
#: ``pickle.HIGHEST_PROTOCOL``) so coordinators and workers on different
#: Python versions interoperate; 5 is the floor for out-of-band buffers
#: (PEP 574) and is supported by every Python this package runs on.
WIRE_PICKLE_PROTOCOL = 5

#: Environment variable naming the default shared cluster secret.
SECRET_ENV = "REPRO_CLUSTER_SECRET"

#: Environment fallbacks for the TLS flags, so backend spec strings
#: (``--backend service:host:port``) work over TLS without new syntax.
TLS_CERT_ENV = "REPRO_TLS_CERT"
TLS_KEY_ENV = "REPRO_TLS_KEY"
TLS_CA_ENV = "REPRO_TLS_CA"

#: Sanity marker refusing non-cluster clients early.
MAGIC = "repro-cluster"

#: Upper bound on one frame; a mis-framed stream fails fast instead of
#: attempting a gigantic allocation.
MAX_FRAME_BYTES = 1 << 30

#: Upper bound on the frames a coordinator reads before a peer has
#: authenticated (HELLO and AUTH): an unknown peer cannot make it buffer
#: more than this.
MAX_HANDSHAKE_BYTES = 64 << 10

HELLO = "hello"
CHALLENGE = "challenge"
AUTH = "auth"
WELCOME = "welcome"
REJECT = "reject"
GET = "get"
SHARD = "shard"
RESULT = "result"
FAIL = "fail"
PING = "ping"
SHUTDOWN = "shutdown"
SUBMIT = "submit"
SUBMITTED = "submitted"
REJECTED = "rejected_submit"
JOB_RESULT = "job_result"
JOB_FAIL = "job_fail"
JOB_DONE = "job_done"
JOB_CANCELLED = "job_cancelled"
STATUS = "status"
STATUS_REPLY = "status_reply"
CANCEL = "cancel"
CANCEL_REPLY = "cancel_reply"
METRICS = "metrics"
METRICS_REPLY = "metrics_reply"

_HEADER = struct.Struct(">I")

#: First byte of a segmented (out-of-band buffer) payload.  The npy
#: magic byte — distinct from ``0x80``, the first byte of every plain
#: pickle at protocol >= 2, which is what payload sniffing relies on.
_SEGMENTED = 0x93

#: First byte of a results payload (``RESULT`` and ``JOB_RESULT``).
_RESULTS = 0x52
_RESULT_CODES = {RESULT: 1, JOB_RESULT: 2}
_RESULT_KINDS = {code: kind for kind, code in _RESULT_CODES.items()}
#: Layout byte, kind code, shard id, job id length and row count; then
#: the UTF-8 job id (empty in a RESULT), the row table and the cells.
_RESULTS_HEAD = struct.Struct(">BBqHI")
#: One row of the table: the cell's index and its byte length.
_ROW = struct.Struct(">qI")


class ProtocolError(ConnectionError):
    """The peer sent something that is not a protocol frame."""


def encode_frames(message: tuple) -> list:
    """One wire frame as a list of buffers (zero-copy where possible).

    The first element is the 4-byte outer length prefix; the rest is
    the payload.  ``RESULT`` and ``JOB_RESULT`` messages produce the
    results layout, whose cells are the row buffers themselves, spliced
    in uncopied.  Other messages without array buffers produce a
    plain-pickle payload; those carrying NumPy arrays produce the
    segmented layout, whose raw buffer segments are *views* of the
    arrays being sent — nothing is copied into the pickle stream.  The
    asyncio side hands the list to ``writer.writelines``; blocking peers
    join it once (:func:`encode_message`) and write the frame in one
    call.
    """
    if _is_results(message):
        parts = _results_parts(message)
        total = sum(map(len, parts))
    else:
        parts, total = _pickle_parts(message)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"message of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit",
        )
    return [_HEADER.pack(total), *parts]


def _is_results(message) -> bool:
    return (
        type(message) is tuple
        and bool(message)
        and isinstance(message[0], str)
        and message[0] in _RESULT_CODES
    )


def _results_parts(message: tuple) -> list:
    """The results-layout payload of a ``RESULT``/``JOB_RESULT`` message,
    as a header-and-table buffer followed by the cells."""
    try:
        if message[0] == RESULT:
            _, shard_id, rows = message
            job = b""
        else:
            _, job_id, shard_id, rows = message
            job = job_id.encode("utf-8")
        cells = [cell for _, cell in rows]
        head = [
            _RESULTS_HEAD.pack(
                _RESULTS, _RESULT_CODES[message[0]], shard_id, len(job), len(rows)
            ),
            job,
        ]
        head.extend(_ROW.pack(index, len(cell)) for index, cell in rows)
    except (ValueError, TypeError, AttributeError, struct.error) as exc:
        raise ProtocolError(
            f"a {message[0]} frame carries (int index, cell bytes) rows: {exc}"
        ) from None
    return [b"".join(head), *cells]


def _pickle_parts(message: tuple) -> tuple[list, int]:
    """The plain or segmented pickle payload of *message*, and its size."""
    buffers: list[pickle.PickleBuffer] = []
    try:
        header = pickle.dumps(
            message,
            protocol=WIRE_PICKLE_PROTOCOL,
            buffer_callback=buffers.append,
        )
        raws = [buffer.raw() for buffer in buffers]
    except BufferError:
        # A non-contiguous out-of-band buffer somewhere in the graph;
        # fall back to fully in-band pickling.
        header = pickle.dumps(message, protocol=WIRE_PICKLE_PROTOCOL)
        raws = []
    if not raws:
        return [header], len(header)
    parts: list = [bytes((_SEGMENTED,)) + _HEADER.pack(len(header)), header]
    total = 1 + _HEADER.size + len(header)
    for raw in raws:
        parts.append(_HEADER.pack(raw.nbytes))
        parts.append(raw)
        total += _HEADER.size + raw.nbytes
    return parts, total


def encode_message(message: tuple) -> bytes:
    """One wire frame as contiguous bytes: the blocking peers' encoder.

    Joins the parts of :func:`encode_frames` once, so each array
    segment is copied exactly once, into the frame that
    :func:`send_message` writes in a single ``sendall``.
    """
    return b"".join(encode_frames(message))


def decode_payload(payload) -> tuple:
    """Decode one frame payload (any layout) back into its message.

    A results payload decodes to ``(RESULT, shard_id, rows)`` or
    ``(JOB_RESULT, job_id, shard_id, rows)`` whose rows are ``(index,
    cell)`` pairs, each cell a memoryview slice of *payload*; the cells
    themselves are the receiver's to check
    (:func:`~repro.engine.diskcache.decode_cell`).  Array buffers of a
    segmented payload are handed to pickle as memoryview slices of
    *payload*, so decoded NumPy arrays are zero-copy read-only views
    over the received bytes.  A payload that does not decode (not a
    pickle, truncated, a bad segment or row table, trailing bytes, or a
    pickled ``RESULT``/``JOB_RESULT``, which travel only in the results
    layout) raises :class:`ProtocolError`, whatever pickle itself
    raised.
    """
    view = memoryview(payload)
    if view.nbytes and view[0] == _RESULTS:
        return _decode_results(view)
    if not view.nbytes or view[0] != _SEGMENTED:
        return _unpickle(view)
    offset = 1

    def take(count: int) -> memoryview:
        nonlocal offset
        end = offset + count
        if end > view.nbytes:
            raise ProtocolError("truncated segmented payload")
        part = view[offset:end]
        offset = end
        return part

    (header_len,) = _HEADER.unpack(take(_HEADER.size))
    header = take(header_len)
    buffers: list[memoryview] = []
    while offset < view.nbytes:
        (segment_len,) = _HEADER.unpack(take(_HEADER.size))
        buffers.append(take(segment_len))
    return _unpickle(header, buffers)


def _decode_results(view: memoryview) -> tuple:
    """The message of a results payload; its cells stay unparsed."""
    if view.nbytes < _RESULTS_HEAD.size:
        raise ProtocolError("truncated results header")
    _, code, shard_id, job_len, count = _RESULTS_HEAD.unpack_from(view)
    kind = _RESULT_KINDS.get(code)
    table = _RESULTS_HEAD.size + job_len
    cells = table + count * _ROW.size
    if kind is None or (kind == RESULT) != (job_len == 0):
        raise ProtocolError(f"results kind {code} with a {job_len}-byte job id")
    if cells > view.nbytes:
        raise ProtocolError("truncated results table")
    rows = []
    offset = cells
    for index, length in _ROW.iter_unpack(view[table:cells]):
        end = offset + length
        rows.append((index, view[offset:end]))
        offset = end
    if offset != view.nbytes:
        raise ProtocolError("results rows do not add up to the payload")
    if kind == RESULT:
        return RESULT, shard_id, rows
    try:
        job_id = str(view[_RESULTS_HEAD.size:table], "utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("undecodable job id") from None
    return JOB_RESULT, job_id, shard_id, rows


def _unpickle(data: memoryview, buffers: list | None = None) -> tuple:
    try:
        message = pickle.loads(data, buffers=buffers)
    except Exception as exc:  # pickle raises almost anything on bad bytes
        raise ProtocolError(
            f"undecodable payload: {type(exc).__name__}: {exc}"
        ) from exc
    if _is_results(message):
        raise ProtocolError(f"a pickled {message[0]} frame")
    return message


def hello(info: dict | None = None) -> tuple:
    """The opening handshake message of a current-version peer.

    The info dict always carries ``"pickle"`` — the pinned wire pickle
    protocol — so the coordinator can refuse a peer pickling at a
    different protocol during the handshake (see
    ``Coordinator._handshake_error``) instead of crashing mid-frame.
    """
    merged = dict(info or {})
    merged.setdefault("pickle", WIRE_PICKLE_PROTOCOL)
    return (HELLO, MAGIC, PROTOCOL_VERSION, merged)


def is_frame(message: object, kind: str, *fields: type) -> bool:
    """Whether *message* is the frame ``(kind, *fields)``: a tuple of
    *kind* and one value of each type in *fields*.

    The blocking peers check every frame they act on with it, so a
    malformed one becomes a protocol error rather than an
    ``IndexError`` or ``TypeError`` halfway through handling it.
    """
    return (
        isinstance(message, tuple)
        and len(message) == 1 + len(fields)
        and isinstance(message[0], str)
        and message[0] == kind
        and all(map(isinstance, message[1:], fields))
    )


def auth_digest(secret: str, nonce: str) -> str:
    """The HMAC-SHA256 response to a ``CHALLENGE`` nonce.

    Both sides derive it from the shared secret; the secret itself never
    crosses the wire, and a recorded response is useless against a fresh
    nonce.
    """
    return hmac.new(
        secret.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def resolve_secret(spec: str | None) -> str | None:
    """Turn a secret spec into the effective shared secret.

    An explicit *spec* wins; otherwise the ``REPRO_CLUSTER_SECRET``
    environment variable is consulted.  An empty value in either place
    means "no authentication" (``None``).
    """
    if spec is None:
        spec = os.environ.get(SECRET_ENV)
    return spec or None


def resolve_tls(
    cert: str | None = None,
    key: str | None = None,
    ca: str | None = None,
) -> tuple[str | None, str | None, str | None]:
    """Effective ``(cert, key, ca)`` paths after environment fallbacks.

    Explicit values win; unset ones fall back to ``REPRO_TLS_CERT`` /
    ``REPRO_TLS_KEY`` / ``REPRO_TLS_CA``.  Empty strings (flag or
    variable) mean "off" for that slot, mirroring the secret handling.
    """
    if cert is None:
        cert = os.environ.get(TLS_CERT_ENV)
    if key is None:
        key = os.environ.get(TLS_KEY_ENV)
    if ca is None:
        ca = os.environ.get(TLS_CA_ENV)
    return cert or None, key or None, ca or None


def server_tls_context(
    cert: str, key: str | None = None, ca: str | None = None
) -> ssl.SSLContext:
    """A coordinator-side TLS context serving *cert*.

    *key* may be ``None`` when the certificate file also contains the
    private key.  Passing *ca* turns on mutual TLS: connecting peers
    must then present a certificate signed by it.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.load_cert_chain(cert, key)
    if ca:
        context.load_verify_locations(ca)
        context.verify_mode = ssl.CERT_REQUIRED
    return context


def client_tls_context(
    ca: str | None = None,
    cert: str | None = None,
    key: str | None = None,
) -> ssl.SSLContext:
    """A peer-side TLS context trusting *ca*.

    The server certificate is verified against *ca* but hostname
    checking is off: coordinators are routinely addressed by IP on a
    private interconnect, and the private CA (typically the
    coordinator's own self-signed certificate) is the identity.
    Without a *ca* the channel is encrypted but the server is
    unauthenticated — acceptable only alongside the shared-secret
    handshake.  *cert*/*key* load a peer certificate for servers
    running mutual TLS.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.check_hostname = False
    if ca:
        context.load_verify_locations(ca)
        context.verify_mode = ssl.CERT_REQUIRED
    else:
        context.verify_mode = ssl.CERT_NONE
    if cert:
        context.load_cert_chain(cert, key)
    return context


def _decode_length(header: bytes, max_bytes: int = MAX_FRAME_BYTES) -> int:
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{max_bytes}-byte limit (mis-framed stream?)",
        )
    return length


# ----------------------------------------------------------------------
# Blocking-socket side (worker entrypoint, service client, tests)
# ----------------------------------------------------------------------
def connect_with_retry(
    host: str,
    port: int,
    timeout: float,
    *,
    max_delay: float = 1.0,
    log=None,
    ssl_context: ssl.SSLContext | None = None,
) -> socket.socket | None:
    """Keep trying to connect for *timeout* seconds, with capped
    exponential backoff (the coordinator may not be up yet when its
    peers launch first, or may be mid-restart).  ``None`` on timeout.

    The TCP socket gets ``TCP_NODELAY`` before anything is sent on it:
    the peers' request/reply traffic is small frames, which Nagle's
    algorithm would hold back for the daemon's delayed ACK (up to
    ~40 ms each).  With *ssl_context* the socket is then TLS-wrapped
    and handshaken before being returned; a failed handshake is retried
    like a refused connection (a daemon restarting with new
    certificates looks exactly like one still binding).
    """
    deadline = time.monotonic() + timeout
    delay = 0.1
    while True:
        sock = None
        try:
            sock = socket.create_connection(
                (host, port), timeout=max(timeout, 1.0)
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if ssl_context is not None:
                sock = ssl_context.wrap_socket(sock, server_hostname=host)
            return sock
        except (OSError, ssl.SSLError) as exc:
            if sock is not None:
                sock.close()
            if time.monotonic() >= deadline:
                if log is not None:
                    log(f"cannot reach coordinator {host}:{port}: {exc}")
                return None
            time.sleep(min(delay, max(deadline - time.monotonic(), 0.0)))
            delay = min(delay * 2, max_delay)


def enable_keepalive(sock: socket.socket) -> None:
    """Detect a silently-dead peer (power loss, network partition).

    The coordinator never pings its peers, so without keepalive a
    blocked ``recv`` would wait forever when the head node vanishes
    without a FIN/RST.  TCP keepalive makes the kernel probe the peer
    and fail the blocked ``recv`` within a couple of minutes; the
    per-probe options are best-effort (platform-dependent).
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 6),
    ):
        if hasattr(socket, option):
            try:
                sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)
            except OSError:  # pragma: no cover - platform quirk
                pass


def send_message(sock: socket.socket, message: tuple) -> None:
    """Write one frame to a blocking socket in a single ``sendall``.

    One write per frame on plain and TLS sockets alike: a frame written
    part by part would leave its later parts waiting on the peer's
    delayed ACK wherever Nagle's algorithm is on.
    """
    sock.sendall(encode_message(message))


def handshake(sock: socket.socket, info: dict, secret: str | None) -> tuple:
    """A blocking peer's HELLO, CHALLENGE/AUTH and WELCOME exchange,
    on a socket it first arms with :func:`enable_keepalive`.

    Returns ``(WELCOME, settings)``, ``(REJECT, reason)``, ``(CHALLENGE,
    None)`` when a secret is demanded and *secret* is ``None``, ``(None,
    None)`` when the coordinator hung up, or ``(kind, None)`` for any
    other reply; transport failures raise.  Callers map the outcomes
    onto their own errors.
    """
    enable_keepalive(sock)
    send_message(sock, hello(info))
    reply = recv_message(sock)
    if isinstance(reply, tuple) and len(reply) == 2 and reply[0] == CHALLENGE:
        if secret is None:
            return CHALLENGE, None
        send_message(sock, (AUTH, auth_digest(secret, reply[1])))
        reply = recv_message(sock)
    if not isinstance(reply, tuple) or not reply:
        return None, None
    detail = reply[1] if len(reply) > 1 else None
    if reply[0] == WELCOME:
        return WELCOME, detail if isinstance(detail, dict) else {}
    return reply[0], detail if reply[0] == REJECT else None


def start_heartbeat(
    sock: socket.socket, write_lock: threading.Lock, interval: float, name: str
) -> threading.Event:
    """Ping *sock* every *interval* seconds from a daemon thread, under
    the caller's *write_lock*, until the returned event is set; a peer
    busy between frames stays audible to the heartbeat timeout."""
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(sock, write_lock, interval, stop),
        name=name,
        daemon=True,
    ).start()
    return stop


def _heartbeat_loop(
    sock: socket.socket,
    write_lock: threading.Lock,
    interval: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval):
        try:
            with write_lock:
                send_message(sock, (PING,))
        except OSError:
            return


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly *count* bytes; ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> tuple | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    payload = _recv_exactly(sock, _decode_length(header))
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return decode_payload(payload)


# ----------------------------------------------------------------------
# Asyncio side (coordinator)
# ----------------------------------------------------------------------
async def read_message(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> tuple | None:
    """Read one frame from a stream; ``None`` on clean EOF.

    A frame announcing more than *max_bytes* raises
    :class:`ProtocolError` before any of its payload is read.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    try:
        payload = await reader.readexactly(_decode_length(header, max_bytes))
    except asyncio.IncompleteReadError:
        raise ProtocolError(
            "connection closed between header and payload"
        ) from None
    return decode_payload(payload)


async def write_message(writer: asyncio.StreamWriter, message: tuple) -> None:
    """Write one frame to a stream and drain; the frame's parts reach
    the transport in one ``writelines`` call."""
    writer.writelines(encode_frames(message))
    await writer.drain()


def parse_address(text: str, *, default_host: str = "") -> tuple[str, int]:
    """Parse ``"port"``, ``":port"`` or ``"host:port"`` into an address.

    A missing host falls back to *default_host* (the empty string means
    "all interfaces" when binding).  Ports must be integers in
    ``[0, 65535]``; port ``0`` asks the OS for an ephemeral port when
    binding.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    elif not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in address {text!r}")
    return host, port
