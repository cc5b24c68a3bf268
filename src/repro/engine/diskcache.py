"""The persistent result-cell store.

The engine's in-memory caches die with the process; sweeps sharded
across worker processes (or restarted after a crash) and service
daemons answering repeat requests would otherwise recompute the same
results once per process.  :class:`DiskStore` persists them as one
``result-<sha256>.pkl`` file per result cell — the ``(perm, cost,
error, metrics)`` outcome of one request keyed by :func:`cell_key` —
so any process pointed at the same directory reads what another
already computed.  It is the one persistent memo layer: every engine
(serial, thread, process and service workers) and every service daemon
reads and publishes the same cells, so a cell computed by any of them
is answered to all the others.  Communication edges are not persisted:
a stored cell answers its request without them, and an engine that
must compute a cell rebuilds them in memory.

The cache directory is chosen per engine via the ``disk_cache_dir``
argument, or globally via the ``REPRO_CACHE_DIR`` environment variable;
with neither set the disk layer is disabled and the engine behaves as
before.  Writes are atomic (tmp file + ``os.replace``), so concurrent
writers on one POSIX filesystem can only ever publish complete entries.
An absent entry is a miss; an unreadable one — undecodable bytes, or a
cell of the wrong shape — is a miss that also counts under ``corrupt``,
never an error.  Files of any other name in the directory (such as the
``edges-*.npy`` arrays of older releases) are never read, cleared or
pruned.

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
import os
import pickle
import tempfile
import threading
import time
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


def _touch(path: Path) -> None:
    """Bump an entry's mtime so :func:`prune` sees it as recently used.

    Best-effort: a read-only cache directory (or an entry racing a
    concurrent eviction) silently keeps its old timestamp.
    """
    try:
        os.utime(path)
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
    (:meth:`DiskStore.load` bumps mtime on hit, so mtime order is
    recency-of-use order) until their combined size is at or under
    *max_bytes*.  Either policy may be ``None`` to skip it, but not
    both.  Returns ``{"result": removed_count}``; a missing directory
    prunes nothing.

    Only ``result-*.pkl`` entries are candidates: foreign files in a
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


def request_payload(request) -> str | None:
    """Stable content payload of one mapping request, or ``None``.

    ``None`` marks the request uncacheable: a mapper *instance*, a
    metric with exotic params, a workload without a content key, or an
    object that is not a :class:`MappingRequest` at all (the service
    daemon calls this on opaque shard items and must pass them through
    untouched).  Workload requests key on the workload's content key;
    Cartesian requests — including Cartesian-equivalent workloads — keep
    the classic :func:`instance_payload`, byte-identical to before
    workloads existed.
    """
    try:
        workload = getattr(request, "workload", None)
        effective = request.effective_workload if workload is not None else None
        if effective is not None:
            instance = workload_payload(effective, request.alloc)
            if instance is None:
                return None
        else:
            instance = instance_payload(
                request.grid, request.stencil, request.alloc
            )
        perm = request.perm
        metrics = request.metrics
        mapper = request.mapper
    except (AttributeError, TypeError):
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


def cell_key(request) -> str | None:
    """File-name key of one request's result cell, or ``None``.

    The :func:`stable_digest` of :func:`request_payload`: engines and
    the service daemon's coordinator key every cell with it, so each
    answers the cells the others computed.  ``None`` marks the request
    uncacheable.
    """
    payload = request_payload(request)
    return None if payload is None else stable_digest(payload)


def _is_cell(value) -> bool:
    """Whether *value* is a ``(perm, cost, error, metrics)`` result cell."""
    if not (isinstance(value, tuple) and len(value) == 4):
        return False
    perm, cost, error, metrics = value
    return (
        (perm is None or isinstance(perm, np.ndarray))
        and (cost is None or isinstance(cost, MappingCost))
        and (error is None or isinstance(error, str))
        and isinstance(metrics, dict)
    )


@dataclass(frozen=True)
class DiskCacheStats:
    """Point-in-time counters of one :class:`DiskStore` handle.

    ``hits``/``misses``/``stores``/``corrupt`` are this process's handle
    counters; ``corrupt`` counts the misses whose entry existed but
    could not be used (undecodable bytes, or a cell of the wrong
    shape).  ``entries``/``total_bytes`` are a directory scan at call
    time, so they reflect every process sharing the cache.
    """

    hits: int
    misses: int
    stores: int
    entries: int = 0
    total_bytes: int = 0
    corrupt: int = 0


class DiskStore:
    """File-per-entry pickle store of result cells.

    The one persistent memo layer behind every engine's in-memory LRUs
    and the service daemon's content-addressed result serving.  A cell
    is the ``(perm, cost, error, metrics)`` outcome of one request —
    the tuple that worker and process-pool result rows carry after
    their index — stored as ``result-<key>.pkl`` under the request's
    :func:`cell_key`.  Publishes are atomic, and the counters are
    lock-guarded: handles are shared between concurrent engine worker
    threads, so unguarded ``+= 1`` bumps would lose updates.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries; created on first use and safely
        shared between processes.
    """

    #: File-name prefix of the store's entries (``result-<key>.pkl``).
    kind = "result"
    _suffix = ".pkl"

    def __init__(self, cache_dir: str | os.PathLike):
        self._dir = Path(cache_dir)
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

    def _path(self, key: str) -> Path:
        return self._dir / f"{self.kind}-{key}{self._suffix}"

    def _count(self, *, hit: bool = False, miss: bool = False,
               store: bool = False, corrupt: bool = False) -> None:
        with self._counter_lock:
            self._hits += hit
            self._misses += miss
            self._stores += store
            self._corrupt += corrupt

    def load(self, key: str) -> tuple | None:
        """The cell stored under *key*, or ``None``.

        An absent entry is a plain miss.  Truncated, undecodable or
        otherwise unreadable bytes, and a value that is not a cell, are
        misses counted as ``corrupt`` — a crashed writer or a stray
        file must never fail a sweep.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                cell = pickle.load(fh)
        except FileNotFoundError:
            self._count(miss=True)
            return None
        except Exception:
            # pickle raises anything from EOFError to arbitrary
            # constructor errors on corrupt bytes.
            cell = None
        if not _is_cell(cell):
            self._count(miss=True, corrupt=True)
            return None
        self._count(hit=True)
        _touch(path)
        return cell

    def store(self, key: str, cell: tuple) -> bool:
        """Atomically publish *cell* under *key*; ``False`` if unwritable.

        Best-effort: an unwritable cache directory degrades to ``False``
        (callers still hold the in-memory copy).  Readers can only ever
        observe complete entries — the tmp file carries a ``.tmp``
        suffix no reader globs, and ``os.replace`` is atomic.
        """
        path = self._path(key)
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=path.stem + ".", suffix=".tmp", dir=self._dir
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(cell, fh, protocol=pickle.HIGHEST_PROTOCOL)
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

        Only ``result-*.pkl`` files are touched, so a directory shared
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
