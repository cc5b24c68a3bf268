"""The persistent result-cell store.

The engine's in-memory caches die with the process; sweeps sharded
across worker processes (or restarted after a crash) and service
daemons answering repeat requests would otherwise recompute the same
results once per process.  :class:`DiskStore` persists them as one
``result-<sha256>.cell`` file per result cell — the ``(perm, cost,
error, metrics)`` outcome of one request keyed by :func:`cell_key` —
so any process pointed at the same directory reads what another
already computed.  It is the one persistent memo layer: every engine
(serial, process-pool and service workers) and every service daemon
reads and publishes the same cells, so a cell computed by any of them
is answered to all the others.  Communication edges are not persisted:
a stored cell answers its request without them, and an engine that
must compute a cell rebuilds them in memory.

The cache directory is chosen per engine via the ``disk_cache_dir``
argument, or globally via the ``REPRO_CACHE_DIR`` environment variable;
with neither set the disk layer is disabled and the engine behaves as
before.  Writes are atomic (tmp file + ``os.replace``), so concurrent
writers on one POSIX filesystem can only ever publish complete entries.
Files of any other name in the directory (such as the ``result-*.pkl``
cells and ``edges-*.npy`` arrays of older releases) are never read,
cleared, pruned or counted.

Cell files
----------
A cell file is plain data, never a pickle, so whoever can write the
cache directory cannot run code in the processes that read it.  It is
a 128-byte little-endian header, then four sections: the raw bytes of
``perm`` and of ``cost.per_node`` (in the byte order their dtype
strings name), the UTF-8 ``error`` and the ``metrics`` dict as a JSON
object.  The header holds, in order: the magic ``b"RCEL"``; a CRC-32
of every byte after it; the format version (2 — the pickled ``.pkl``
cells were the first); presence flags for perm, cost and error; the
cell's own key (the 32 bytes its file name spells in hex); the four
``MappingCost`` integers ``jsum``, ``jmax``, ``total_edges`` and
``bottleneck_node`` (int64); the two arrays' dtype strings (8 bytes
each, NUL-padded); and the four sections' byte lengths (uint64).

The layout is the one cell codec of the package, for disk, memory and
network alike (:func:`encode_cell`, :func:`decode_cell`): a service
worker sends each result as these bytes, the daemon keeps them in
memory and publishes them as received, and a client decodes them.  So
a cell's file bytes do not depend on which tier computed it.

A file is used only if its magic, version and key match, its section
lengths add up to its size, its checksum holds and every section
decodes; arrays decode as zero-copy, read-only ``np.frombuffer`` views.
Anything else — an unreadable, truncated or garbled entry, or a valid
cell filed under another key — is a miss that counts under
``corrupt``, never an error.  An absent entry is a plain miss.
:meth:`DiskStore.store` refuses a cell the layout cannot carry exactly
(see there), so a refused cell is recomputed, never served altered.

Stable content keys
-------------------
The in-memory caches key on live objects (``CartesianGrid`` instances,
mapper registry names, ``MetricSpec``); the disk layer needs keys that
are stable across processes and restarts.  :func:`request_payload`
derives such a key from a :class:`~repro.engine.request.MappingRequest`
— grids, stencils and allocations project to their defining integer
tuples, registry-name mappers to the name, explicit permutations to a
digest of their bytes — or returns ``None`` for requests with no stable
identity (configured :class:`Mapper` *instances* are identity-keyed in
memory and therefore uncacheable on disk, exactly mirroring the
in-memory ``spec_key`` semantics).  :func:`cell_key` hashes it into
the file-name key of the request's cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..metrics.cost import MappingCost

__all__ = [
    "DiskCacheStats",
    "DiskStore",
    "CACHE_DIR_ENV",
    "prune",
    "resolve_cache_dir",
    "stable_digest",
    "instance_payload",
    "workload_payload",
    "mapper_payload",
    "metric_payload",
    "request_payload",
    "cell_key",
    "CellError",
    "encode_cell",
    "decode_cell",
]

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(spec: str | os.PathLike | None) -> Path | None:
    """Turn a cache-dir spec into a concrete path, or ``None`` (disabled).

    An explicit *spec* wins; otherwise the ``REPRO_CACHE_DIR`` environment
    variable is consulted; an empty value in either place disables the
    disk layer.
    """
    if spec is None:
        spec = os.environ.get(CACHE_DIR_ENV) or None
    if spec is None or str(spec) == "":
        return None
    return Path(spec)


def _touch(fd: int) -> None:
    """Bump an open entry's mtime so :func:`prune` sees it as recently used.

    Best-effort: a read-only cache directory silently keeps the old
    timestamp.
    """
    try:
        os.utime(fd)
    except OSError:
        pass


def prune(
    cache_dir: str | os.PathLike,
    max_bytes: int | None = None,
    *,
    ttl: float | None = None,
) -> dict[str, int]:
    """Evict result cells by age (*ttl*) and size budget (*max_bytes*).

    Cells not used (mtime) for more than *ttl* seconds are unlinked
    unconditionally; the survivors are then unlinked oldest-mtime-first
    (:meth:`DiskStore.load` bumps mtime on hit, and
    :meth:`DiskStore.touch` on a hit served from a daemon's memory, so
    mtime order is recency-of-use order) until their combined size is
    at or under *max_bytes*.  Either policy may be ``None`` to skip it,
    but not both.  Returns ``{"result": removed_count}``; a missing
    directory prunes nothing.

    Only ``result-*.cell`` entries are candidates: foreign files in a
    shared directory are never touched (and never counted against the
    budget).
    """
    if max_bytes is None and ttl is None:
        raise ValueError("prune needs max_bytes, ttl, or both")
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    if ttl is not None and ttl <= 0:
        raise ValueError(f"ttl must be positive, got {ttl}")
    store = DiskStore(cache_dir)
    removed = 0
    entries: list[tuple[float, int, Path]] = []
    total = 0
    now = time.time()
    for path in list(store._entries()):
        try:
            stat = path.stat()
        except OSError:
            continue  # racing a concurrent clear()/prune()
        if ttl is not None and now - stat.st_mtime > ttl:
            try:
                path.unlink()
            except OSError:
                continue  # racing another eviction, or permissions
            removed += 1
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    if max_bytes is not None:
        entries.sort(key=lambda entry: entry[0])
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # racing another eviction, or permissions
            total -= size
            removed += 1
    return {store.kind: removed}


# ----------------------------------------------------------------------
# Stable content keys
# ----------------------------------------------------------------------
def stable_digest(payload: str) -> str:
    """Hex sha256 of a payload string — the file-name key of one entry."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stable_value(value):
    """Project a parameter value to a repr-stable form, or raise TypeError.

    Only values whose ``repr`` is identical in every process qualify:
    None, bools, ints, floats, strings, and tuples/lists thereof.
    Anything else (objects, arrays, dicts) has no stable textual
    identity and poisons the key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_stable_value(item) for item in value)
    raise TypeError(
        f"{type(value).__name__} has no process-stable representation"
    )


def instance_payload(grid, stencil, alloc) -> str:
    """Stable payload of one evaluation instance ``(grid, stencil, alloc)``.

    Mirrors the structural equality the in-memory caches rely on: same
    dimensions, periodicity, offset set and node sizes map to the same
    payload in every process.  Offsets are sorted because ``Stencil``
    equality is set-based.
    """
    return repr(
        (
            tuple(grid.dims),
            tuple(grid.periods),
            tuple(sorted(stencil.offsets)),
            tuple(alloc.node_sizes),
        )
    )


def workload_payload(workload, alloc) -> str | None:
    """Stable payload of a workload instance, or ``None`` (uncacheable).

    The workload's own :meth:`~repro.workloads.WorkloadBase.content_key`
    plus the allocation's node sizes — the workload analogue of
    :func:`instance_payload`.  Cartesian-equivalent workloads never
    reach this: :func:`request_payload` routes them through the classic
    Cartesian payload so both request forms share one content key.
    """
    content = workload.content_key()
    if content is None:
        return None
    return repr(("workload", content, tuple(alloc.node_sizes)))


def mapper_payload(mapper) -> str | None:
    """Stable payload of a mapper spec, or ``None`` when identity-keyed.

    Registry names (strings) are stable across processes; configured
    :class:`Mapper` instances are keyed by identity in memory and have
    no disk-stable counterpart.
    """
    if isinstance(mapper, str):
        return repr(("mapper", mapper))
    return None


def metric_payload(spec) -> str | None:
    """Stable payload of a :class:`MetricSpec`, or ``None``.

    Specs whose params contain only plain scalars/tuples (e.g. the
    built-in weighted-bytes metric) qualify; exotic params poison the
    key and the request falls back to compute.
    """
    try:
        return repr((spec.name, _stable_value(spec.params)))
    except (AttributeError, TypeError):
        return None


def _instance_part(request) -> str | None:
    """The instance payload of *request*: workload or Cartesian."""
    workload = getattr(request, "workload", None)
    effective = request.effective_workload if workload is not None else None
    if effective is not None:
        return workload_payload(effective, request.alloc)
    return instance_payload(request.grid, request.stencil, request.alloc)


def request_payload(request, memo: dict | None = None) -> str | None:
    """Stable content payload of one mapping request, or ``None``.

    ``None`` marks the request uncacheable: a mapper *instance*, a
    metric with exotic params, a workload without a content key, or an
    object that is not a :class:`MappingRequest` at all (the service
    daemon calls this on opaque shard items and must pass them through
    untouched).  Workload requests key on the workload's content key;
    Cartesian requests — including Cartesian-equivalent workloads — keep
    the classic :func:`instance_payload`, byte-identical to before
    workloads existed.

    *memo* is an optional dict that the caller keeps for one batch (the
    service daemon keeps one per submission).  It caches each instance
    payload under the identities of the request's workload, grid,
    stencil and allocation, and holds those objects so no identity is
    reused while it lives.  Requests sharing their instance objects, as
    the items of one decoded submission do, then build the payload once.
    """
    try:
        if memo is None:
            instance = _instance_part(request)
        else:
            objects = (
                getattr(request, "workload", None),
                request.grid,
                request.stencil,
                request.alloc,
            )
            ident = tuple(map(id, objects))
            entry = memo.get(ident)
            if entry is None:
                entry = memo[ident] = (_instance_part(request), objects)
            instance = entry[0]
        perm = request.perm
        metrics = request.metrics
        mapper = request.mapper
    except (AttributeError, TypeError):
        return None
    if instance is None:
        return None
    if perm is not None:
        arr = np.ascontiguousarray(perm)
        mapped = repr(
            (
                "perm",
                str(arr.dtype),
                tuple(arr.shape),
                hashlib.sha256(arr.tobytes()).hexdigest(),
            )
        )
    else:
        mapped = mapper_payload(mapper)
        if mapped is None:
            return None
    parts = [instance, mapped]
    for spec in metrics:
        part = metric_payload(spec)
        if part is None:
            return None
        parts.append(part)
    return repr(tuple(parts))


def cell_key(request, memo: dict | None = None) -> str | None:
    """File-name key of one request's result cell, or ``None``.

    The :func:`stable_digest` of :func:`request_payload` (which takes
    the same optional per-batch *memo*): engines and the service
    daemon's coordinator key every cell with it, so each answers the
    cells the others computed.  ``None`` marks the request uncacheable.
    """
    payload = request_payload(request, memo)
    return None if payload is None else stable_digest(payload)


# ----------------------------------------------------------------------
# Cell files (layout in the module docstring)
# ----------------------------------------------------------------------
_MAGIC = b"RCEL"
_VERSION = 2
#: magic, CRC-32, version, flags, key, the four MappingCost integers,
#: the perm and per_node dtype strings, and the four section lengths.
_HEADER = struct.Struct("<4sIII32s4q8s8s4Q")
#: The CRC covers every byte after the magic and the CRC itself.
_CRC_FROM = 8
#: Offset of the 32-byte key in the header.
_KEY_AT = 16
#: The key of a cell whose request has no :func:`cell_key`.
_NO_KEY = bytes(32)
_PERM, _COST, _ERROR = 1, 2, 4
#: NumPy kinds whose dtype string rebuilds the dtype exactly (bool,
#: signed and unsigned integers, floats, complex).
_ARRAY_KINDS = frozenset("biufc")
#: The dtype strings of those kinds (``array.dtype.str``), NUL-padded.
_DTYPE_TEXT = re.compile(rb"[<>|][biufc][0-9]{1,2}\0*")
_METRIC_TYPES = frozenset((type(None), bool, int, float, str))
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: Never block opening an entry: a FIFO planted under a cell's name
#: reads as empty (a corrupt miss) instead of stalling the reader.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)


class CellError(ValueError):
    """Bytes that are not a well-formed cell under the expected key."""


def _digest(key: str) -> bytes | None:
    """The 32 raw bytes a hex cell key spells, or ``None``."""
    try:
        digest = bytes.fromhex(key)
    except (TypeError, ValueError):
        return None
    return digest if len(digest) == 32 else None


def _flat_metrics(value) -> bool:
    """Whether *value* is a ``str -> None|bool|int|float|str`` dict."""
    return type(value) is dict and all(
        type(name) is str and type(item) in _METRIC_TYPES
        for name, item in value.items()
    )


def _array_section(array) -> tuple[bytes, bytes] | None:
    """``(dtype string, raw bytes)`` of a 1-D numeric array, or ``None``."""
    if type(array) is not np.ndarray or array.ndim != 1:
        return None
    if array.dtype.kind not in _ARRAY_KINDS:
        return None
    return array.dtype.str.encode("ascii"), array.tobytes()


def encode_cell(cell, key: str | None = None) -> bytes | None:
    """The ``.cell`` bytes of *cell* under *key*, or ``None`` when the
    layout cannot carry it exactly.

    *cell* is a ``(perm, cost, error, metrics)`` tuple and *key* its
    :func:`cell_key`; ``None`` (an uncacheable request) writes the
    all-zero key.  The one encoder of the store's files, of a
    worker's ``RESULT`` rows and so of every cell a client receives.
    """
    digest = _NO_KEY if key is None else _digest(key)
    if digest is None or type(cell) is not tuple or len(cell) != 4:
        return None
    perm, cost, error, metrics = cell
    flags = 0
    dtypes = [b"", b""]
    sections = [b"", b"", b"", b""]
    numbers = (0, 0, 0, 0)
    if perm is not None:
        array = _array_section(perm)
        if array is None:
            return None
        flags |= _PERM
        dtypes[0], sections[0] = array
    if cost is not None:
        if type(cost) is not MappingCost:
            return None
        numbers = (cost.jsum, cost.jmax, cost.total_edges, cost.bottleneck_node)
        if not all(
            type(n) is int and _INT64_MIN <= n <= _INT64_MAX for n in numbers
        ):
            return None
        array = _array_section(cost.per_node)
        if array is None:
            return None
        flags |= _COST
        dtypes[1], sections[1] = array
    if error is not None:
        if type(error) is not str:
            return None
        try:
            sections[2] = error.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates
            return None
        flags |= _ERROR
    if not _flat_metrics(metrics):
        return None
    sections[3] = json.dumps(metrics).encode("ascii")
    header = _HEADER.pack(
        _MAGIC, 0, _VERSION, flags, digest, *numbers, *dtypes,
        *map(len, sections),
    )
    crc = zlib.crc32(header[_CRC_FROM:])
    for section in sections:
        crc = zlib.crc32(section, crc)
    return b"".join(
        (header[:4], crc.to_bytes(4, "little"), header[_CRC_FROM:], *sections)
    )


#: Dtypes by their NUL-padded header field; at most a few hundred
#: fields match ``_DTYPE_TEXT``.
_DTYPES: dict[bytes, np.dtype] = {}
_NO_DTYPE = bytes(8)


def _dtype(field: bytes) -> np.dtype:
    """The dtype a header's dtype field names; :class:`CellError` unless
    it is a bool, integer, float or complex one."""
    dtype = _DTYPES.get(field)
    if dtype is None:
        if _DTYPE_TEXT.fullmatch(field) is None:
            raise CellError(f"not a numeric dtype string: {field!r}")
        try:
            dtype = np.dtype(field.rstrip(b"\0").decode("ascii"))
        except TypeError:  # e.g. "<i3"
            raise CellError(f"not a numeric dtype string: {field!r}") from None
        _DTYPES[field] = dtype
    return dtype


def _array(view: memoryview, start: int, size: int, field: bytes, present: int):
    """The array section of *size* bytes at *start*, or ``None`` when
    absent."""
    if not present:
        if size or field != _NO_DTYPE:
            raise CellError("an absent section has content")
        return None
    dtype = _dtype(field)
    if size % dtype.itemsize:
        raise CellError("an array section is not a whole number of items")
    return np.frombuffer(view, dtype, size // dtype.itemsize, start)


def decode_cell(data, key: str | None = None) -> tuple:
    """The ``(perm, cost, error, metrics)`` cell in *data*.

    *data* is any bytes-like object; arrays decode as zero-copy,
    read-only views over it.  Raises :class:`CellError` unless *data*
    is exactly one well-formed cell — magic, version, section lengths,
    CRC-32 and every section — and, when *key* is given, one filed
    under that key.  Nothing in *data* is ever executed.  Every cell a
    service client receives goes through here, so it is kept lean.
    """
    view = data if type(data) is memoryview else memoryview(data)
    size = len(view)
    if size < _HEADER.size:
        raise CellError("shorter than a cell header")
    (
        magic, crc, version, flags, stored_key, jsum, jmax, total_edges,
        bottleneck, perm_field, node_field, n_perm, n_node, n_error, n_metrics,
    ) = _HEADER.unpack_from(view)
    node_at = _HEADER.size + n_perm
    error_at = node_at + n_node
    metrics_at = error_at + n_error
    if (
        magic != _MAGIC
        or version != _VERSION
        or flags & ~(_PERM | _COST | _ERROR)
        or metrics_at + n_metrics != size
    ):
        raise CellError("not a well-formed version-2 cell")
    if key is not None and stored_key != _digest(key):
        raise CellError("filed under another key")
    if zlib.crc32(view[_CRC_FROM:]) != crc:
        raise CellError("CRC mismatch")
    perm = _array(view, _HEADER.size, n_perm, perm_field, flags & _PERM)
    per_node = _array(view, node_at, n_node, node_field, flags & _COST)
    if flags & _ERROR:
        try:
            error = str(view[error_at:metrics_at], "utf-8")
        except UnicodeDecodeError as exc:
            raise CellError(f"undecodable error text: {exc}") from None
    elif n_error:
        raise CellError("an absent section has content")
    else:
        error = None
    if n_metrics == 2 and view[metrics_at:] == b"{}":  # most cells
        metrics = {}
    else:
        try:
            metrics = json.loads(str(view[metrics_at:], "ascii"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
            raise CellError(f"undecodable metrics: {exc}") from None
        if not _flat_metrics(metrics):
            raise CellError("metrics are not a flat dict of scalars")
    if per_node is None:
        if jsum or jmax or total_edges or bottleneck:
            raise CellError("a cost without its per-node array")
        return perm, None, error, metrics
    # As pickle rebuilds one: no frozen-dataclass __init__ per cell.
    cost = object.__new__(MappingCost)
    cost.__dict__.update(
        jsum=jsum,
        jmax=jmax,
        total_edges=total_edges,
        per_node=per_node,
        bottleneck_node=bottleneck,
    )
    return perm, cost, error, metrics


def _filed_under(data, digest: bytes) -> bool:
    """Whether *data* opens with a cell header carrying *digest*."""
    return (
        len(data) >= _HEADER.size
        and data[:4] == _MAGIC
        and data[_KEY_AT:_KEY_AT + 32] == digest
    )


@dataclass(frozen=True)
class DiskCacheStats:
    """Point-in-time counters of one :class:`DiskStore` handle.

    ``hits``/``misses``/``stores``/``corrupt`` are this process's handle
    counters; ``corrupt`` counts the misses whose entry existed but
    could not be used (unreadable, or not a well-formed cell filed
    under its own key).  ``entries``/``total_bytes`` are a directory
    scan at call time, so they reflect every process sharing the cache.
    """

    hits: int
    misses: int
    stores: int
    entries: int = 0
    total_bytes: int = 0
    corrupt: int = 0


class DiskStore:
    """File-per-entry store of result cells.

    The one persistent memo layer behind every engine's in-memory LRUs
    and the service daemon's content-addressed result serving.  A cell
    is the ``(perm, cost, error, metrics)`` outcome of one request —
    the tuple that worker and process-pool result rows carry after
    their index — stored as ``result-<key>.cell`` under the request's
    :func:`cell_key`, in the layout the module docstring describes.
    Publishes are atomic, and the counters are lock-guarded: threads
    sharing one engine share its handle, so unguarded ``+= 1`` bumps
    would lose updates.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries; created on first use and safely
        shared between processes.
    """

    #: File-name prefix of the store's entries (``result-<key>.cell``).
    kind = "result"
    _suffix = ".cell"

    def __init__(self, cache_dir: str | os.PathLike):
        self._dir = Path(cache_dir)
        self._prefix = os.path.join(self._dir, f"{self.kind}-")
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corrupt = 0

    @property
    def cache_dir(self) -> Path:
        """The directory backing this store."""
        return self._dir

    @property
    def corrupt(self) -> int:
        """Unreadable entries this handle has met (no directory scan)."""
        with self._counter_lock:
            return self._corrupt

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}{self._suffix}"

    def _count(self, *, hit: bool = False, miss: bool = False,
               store: bool = False, corrupt: bool = False) -> None:
        with self._counter_lock:
            self._hits += hit
            self._misses += miss
            self._stores += store
            self._corrupt += corrupt

    def load(self, key: str) -> tuple | None:
        """The cell stored under *key*, or ``None``.

        An absent entry is a plain miss.  An entry that cannot be opened
        or read (``PermissionError`` included), and bytes that are not a
        well-formed cell filed under *key*, are misses counted as
        ``corrupt`` — a crashed writer, a stray or misfiled file must
        never fail a sweep, and nothing in the file is ever executed.
        """
        found = self._read(key)
        return None if found is None else found[1]

    def load_bytes(self, key: str) -> bytes | None:
        """The file bytes of the cell under *key*, once :meth:`load`
        would accept them, or ``None``; counted as :meth:`load` counts.

        For the service daemon, which keeps cells encoded and splices
        them into its result frames.
        """
        found = self._read(key)
        return None if found is None else found[0]

    def _read(self, key: str) -> tuple[bytes, tuple] | None:
        """``(file bytes, decoded cell)`` under *key*, or ``None``."""
        path = self._path(key)
        try:
            fd = os.open(path, _OPEN_FLAGS)
        except FileNotFoundError:
            self._count(miss=True)
            return None
        except OSError:
            found = None
        else:
            try:
                data = os.read(fd, os.fstat(fd).st_size)
                found = data, decode_cell(data, key)
                _touch(fd)
            except (OSError, CellError):
                found = None
            finally:
                os.close(fd)
        if found is None:
            self._count(miss=True, corrupt=True)
            return None
        self._count(hit=True)
        return found

    def touch(self, key: str) -> bool:
        """Bump the mtime of the entry under *key*, as a load hit does;
        ``False`` when there is no such entry.

        For callers that keep loaded cells in memory (the service
        daemon): a cell served from memory stays recent for
        :func:`prune`, and a ``False`` tells the caller the entry was
        cleared or evicted.  Not a lookup, so nothing is counted.
        """
        try:
            os.utime(self._path(key))
        except FileNotFoundError:
            return False
        except OSError:
            pass  # present but read-only: keeps its old timestamp
        return True

    def store(self, key: str, cell) -> bool:
        """Atomically publish *cell* under *key*; ``False`` if refused.

        *cell* is a ``(perm, cost, error, metrics)`` tuple, or the bytes
        of one already encoded under *key* (:func:`encode_cell`), which
        are written as they are: the service daemon publishes a
        worker's cells so, after checking them with
        :func:`decode_cell`.  Bytes whose header names another key are
        refused, and so is a tuple the layout cannot carry exactly:
        anything but a ``(perm, cost, error, metrics)`` tuple; a
        ``perm`` or ``per_node`` that is not a 1-D bool, integer, float
        or complex ``ndarray``; a ``cost`` that is not a
        :class:`MappingCost` of plain int64-range ``int`` fields; an
        ``error`` that is not UTF-8 encodable ``str`` or ``None``;
        ``metrics`` that are not a flat ``str`` ->
        ``None|bool|int|float|str`` dict; a key that is not 64 hex
        digits.  An unwritable or full cache directory also returns
        ``False`` and leaves no file behind (callers still hold the
        in-memory copy).  Readers can only ever observe complete
        entries — the tmp file carries a ``.tmp`` suffix no reader
        globs, and ``os.replace`` is atomic.
        """
        digest = _digest(key)
        if digest is None:
            return False
        if isinstance(cell, (bytes, memoryview)):
            data = cell if _filed_under(cell, digest) else None
        else:
            data = encode_cell(cell, key)
        if data is None:
            return False
        path = self._path(key)
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=os.path.basename(path) + ".", suffix=".tmp", dir=self._dir
            )
            try:
                try:
                    view = memoryview(data)
                    while view:
                        view = view[os.write(fd, view):]
                finally:
                    os.close(fd)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        self._count(store=True)
        return True

    def _entries(self):
        try:
            yield from self._dir.glob(f"{self.kind}-*{self._suffix}")
        except OSError:  # pragma: no cover - unreadable directory
            return

    def stats(self) -> DiskCacheStats:
        """This handle's counters plus a directory scan."""
        entries = 0
        total_bytes = 0
        for path in self._entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # racing a concurrent clear()
            entries += 1
        with self._counter_lock:
            return DiskCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                entries=entries,
                total_bytes=total_bytes,
                corrupt=self._corrupt,
            )

    def clear(self) -> int:
        """Delete every cell of the store; returns how many removed.

        Only ``result-*.cell`` files are touched, so a directory shared
        with other data is safe to clear.
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
            except OSError:
                continue  # racing another clear(), or permissions
            removed += 1
        return removed

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"{type(self).__name__}({str(self._dir)!r}, kind={self.kind!r}, "
            f"hits={s.hits}, misses={s.misses}, stores={s.stores})"
        )
