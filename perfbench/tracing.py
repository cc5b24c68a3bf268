"""Spans around calls into repro's public functions, for traced runs.

Only a ``--trace 1`` run imports this module.  :func:`install` wraps
public functions and methods of each layer — mappers, edge enumeration,
workloads, scoring kernels, metric sets, the engine, the backends, the
wire protocol, the service client, the daemon's result store and the
sweep API — in every process of the run: the benchmark itself, its
forked pool workers (installed before the pool forks) and the daemon
and worker (installed by ``launch.py`` before the CLI runs).

A span records its name, start and end (``time.monotonic_ns``, one
clock for every process on the host), its parent span, the benchmark's
job id and the shard id where known, plus one label and two numbers
that depend on the layer (mapper name, bytes, parts, edge visits).
Spans stay in memory and are written to ``spans-<role>-<pid>.jsonl``
when the process ends; pool workers leave through ``os._exit``, so
they write after every shard instead.

:func:`per_layer` turns the spans of a run's traced phase into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

_TRACER: "Tracer | None" = None

#: Modules whose imported-by-name references are patched too.
_MODULES = (
    "repro",
    "repro.sweep",
    "repro.grid.graph",
    "repro.kernels",
    "repro.metrics.cost",
    "repro.core.graphmap",
    "repro.workloads.base",
    "repro.engine.engine",
    "repro.engine.metrics",
    "repro.engine.diskcache",
    "repro.engine.backends",
    "repro.engine.cluster.protocol",
    "repro.engine.cluster.coordinator",
    "repro.engine.cluster.worker",
    "repro.service.client",
    "repro.service.backend",
    "repro.service.daemon",
    "repro.experiments.__main__",
)

_ROLES = {"serve-jobs": "daemon", "work": "worker"}


class Tracer:
    """The span buffer of one process."""

    def __init__(self, trace_dir: str, role: str):
        self.trace_dir = Path(trace_dir)
        self.role = _ROLES.get(role, role)
        self.enabled = True
        self.records: list[list] = []
        self.current_shard = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with an empty buffer of its own.
        self.role = "pool"
        self.records = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str, job=None):
        """Open a span; it inherits the enclosing span's job id."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        if job is None and stack:
            job = stack[-1][2]
        span_id = next(self._ids)
        stack.append((span_id, name, job))
        return span_id, parent, job, time.monotonic_ns()

    def end(self, token, name, label=None, value=0, value2=0) -> None:
        end = time.monotonic_ns()
        span_id, parent, job, start = token
        self._stack().pop()
        record = [
            name, start, end, span_id, parent, job,
            self.current_shard, label, value, value2,
        ]
        with self._lock:
            self.records.append(record)

    def event(self, name: str, label=None, value=0, shard=None) -> None:
        now = time.monotonic_ns()
        with self._lock:
            self.records.append([name, now, now, 0, 0, None, shard, label, value, 0])

    @contextmanager
    def span(self, name: str, job=None):
        """A span around a block of benchmark code (e.g. one job)."""
        if not self.enabled:
            yield
            return
        token = self.begin(name, job)
        try:
            yield
        finally:
            self.end(token, name)

    def flush(self) -> None:
        with self._lock:
            records, self.records = self.records, []
        if not records:
            return
        path = self.trace_dir / f"spans-{self.role}-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, default=str) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(fn, name: str, measure=None, after=None):
    """``fn`` inside a span; ``measure(args, kwargs, result)`` returns
    ``(label, value, value2)`` for the record."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _TRACER
        if tracer is None or not tracer.enabled:
            return fn(*args, **kwargs)
        token = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            label, value, value2 = (
                measure(args, kwargs, result) if measure is not None else (None, 0, 0)
            )
            tracer.end(token, name, label, value, value2)
            if after is not None:
                after(tracer, token, args, result)

    return wrapper


def _replace_everywhere(module_name: str, attr: str, wrapper_for) -> None:
    """Wrap ``module.attr`` and every repro module's reference to it."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def _wrap_method(cls, attr: str, name: str, measure=None, after=None) -> None:
    if attr in cls.__dict__:
        setattr(cls, attr, _wrap(cls.__dict__[attr], name, measure, after))


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _mapper_label(args, kwargs, result):
    return getattr(args[0], "name", type(args[0]).__name__), 0, 0


def _edge_count(args, kwargs, result):
    return None, 0 if result is None else int(len(result)), 0


def _edge_visits(args, kwargs, result):
    edges = kwargs.get("edges")
    perms = args[2] if len(args) > 2 else kwargs.get("perms")
    if edges is None or perms is None:
        return None, 0, 0
    return None, int(len(edges)) * int(len(perms)), 0


def _frame_size(args, kwargs, result):
    message = args[0] if args else None
    kind = message[0] if isinstance(message, tuple) and message else None
    if result is None:
        return kind, 0, 0
    size = sum(memoryview(part).nbytes for part in result)
    return kind, size, len(result)


def _payload_size(args, kwargs, result):
    kind = result[0] if isinstance(result, tuple) and result else None
    return kind, memoryview(args[0]).nbytes if args else 0, 0


def _after_encode(tracer, token, args, result):
    message = args[0] if args else None
    if tracer.role == "daemon" and isinstance(message, tuple) and message[:1] == ("shard",):
        tracer.event("event.handout", shard=message[1])


def _after_decode(tracer, token, args, result):
    if not isinstance(result, tuple) or not result:
        return
    kind = result[0]
    if kind == "shard" and tracer.role == "worker":
        tracer.current_shard = result[1]
        tracer.event("event.shard_recv", shard=result[1])
    elif kind == "result" and tracer.role == "daemon":
        tracer.event("event.result", shard=result[1])
    elif kind == "submitted" and tracer.role == "bench":
        tracer.event("event.submitted", label=result[1], shard=list(result[2]))


def _after_evaluate(tracer, token, args, result):
    if token[1]:  # nested call: the enclosing batch records
        return
    if tracer.role == "worker":
        stats = args[0].cache_stats()
        tracer.event(
            "engine.cache_stats",
            label={k: [s.hits, s.misses] for k, s in stats.items()},
        )
    if tracer.role in ("pool", "worker"):
        tracer.flush()  # pool workers exit through os._exit


def _pickled_submit(args, kwargs, result):
    try:
        size = len(pickle.dumps(args[1:], protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - unpicklable work fails in submit anyway
        size = 0
    return None, size, 0


def _wrap_future_result(fn):
    @functools.wraps(fn)
    def result(self, timeout=None):
        tracer = _TRACER
        if (
            tracer is None
            or not tracer.enabled
            or tracer.top_name() != "backends.process_batch"
        ):
            return fn(self, timeout)
        token = tracer.begin("backends.wait")
        value = None
        try:
            value = fn(self, timeout)
            return value
        finally:
            tracer.end(token, "backends.wait")
            size = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            tracer.event("backends.result_bytes", value=size)

    return result


def install(trace_dir: str, role: str) -> Tracer:
    """Wrap every traced function in this process; returns the tracer."""
    global _TRACER
    for name in _MODULES:
        importlib.import_module(name)
    from repro.core import Mapper
    from repro.engine import EvaluationEngine, ProcessBackend
    from repro.engine import metrics as metric_sets
    from repro.engine.diskcache import DiskStore
    from repro.service import ServiceClient
    from repro.sweep import ResultSet, SweepSpec
    from repro.workloads import WorkloadBase

    for cls in [Mapper, *_all_subclasses(Mapper)]:
        _wrap_method(cls, "map_ranks", "core.map", _mapper_label)
        _wrap_method(cls, "map_workload", "core.map", _mapper_label)
    for cls in _all_subclasses(WorkloadBase):
        _wrap_method(cls, "comm_edges", "workloads.comm_edges", _edge_count)
    _replace_everywhere(
        "repro.grid.graph", "communication_edges",
        lambda fn: _wrap(fn, "grid.edges", _edge_count),
    )
    _replace_everywhere(
        "repro.kernels", "evaluate_mappings_batch",
        lambda fn: _wrap(fn, "kernels.score", _edge_visits),
    )
    registry = metric_sets._REGISTRY
    for metric_name, fn in list(registry.items()):
        registry[metric_name] = _wrap(
            fn, "engine.metric", lambda a, k, r, n=metric_name: (n, 0, 0)
        )
    _wrap_method(
        EvaluationEngine, "evaluate_batch", "engine.evaluate_batch",
        after=_after_evaluate,
    )
    _replace_everywhere(
        "repro.engine.backends", "instance_aligned_shards",
        lambda fn: _wrap(fn, "backends.shards", lambda a, k, r: (None, len(r or ()), 0)),
    )
    _wrap_method(ProcessBackend, "evaluate_batch", "backends.process_batch")
    ProcessPoolExecutor.submit = _wrap(
        ProcessPoolExecutor.submit, "backends.submit", _pickled_submit
    )
    Future.result = _wrap_future_result(Future.result)
    _replace_everywhere(
        "repro.engine.backends", "rebuild_batch",
        lambda fn: _wrap(fn, "backends.rebuild"),
    )
    _replace_everywhere(
        "repro.engine.cluster.protocol", "encode_frames",
        lambda fn: _wrap(fn, "protocol.encode", _frame_size, _after_encode),
    )
    _replace_everywhere(
        "repro.engine.cluster.protocol", "decode_payload",
        lambda fn: _wrap(fn, "protocol.decode", _payload_size, _after_decode),
    )
    _replace_everywhere(
        "repro.engine.cluster.protocol", "recv_message",
        lambda fn: _wrap(fn, "protocol.recv"),
    )
    _wrap_method(ServiceClient, "submit", "service.submit")
    for attr in ("request_payload", "stable_digest"):
        _replace_everywhere(
            "repro.engine.diskcache", attr, lambda fn: _wrap(fn, "diskcache.key")
        )
    _wrap_method(DiskStore, "load", "diskcache.load")
    _wrap_method(DiskStore, "store", "diskcache.store")
    _wrap_method(SweepSpec, "cells", "sweep.compile")
    _wrap_method(ResultSet, "to_rows", "sweep.rows")
    _TRACER = Tracer(trace_dir, role)
    return _TRACER


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
MAPPERS = (
    "blocked", "hyperplane", "kd_tree", "stencil_strips", "nodecart",
    "graphmap", "random",
)

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    *((f"core.map_s.{m}", "s", "lower") for m in MAPPERS),
    ("core.graphmap_over_strips", "ratio", "lower"),
    ("grid.edges_s", "s", "lower"),
    ("grid.edges_calls", "count", "lower"),
    ("workloads.comm_edges_s", "s", "lower"),
    ("kernels.score_s", "s", "lower"),
    ("kernels.edge_visits", "count", "lower"),
    ("engine.metric_s.topology_hop_cut", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.hit_rate.edges", "ratio", "higher"),
    ("engine.hit_rate.permutations", "ratio", "higher"),
    ("engine.hit_rate.costs", "ratio", "higher"),
    ("backends.pool_start_s", "s", "lower"),
    ("backends.shards", "count", "lower"),
    ("backends.payload_bytes", "bytes", "lower"),
    ("backends.wait_s", "s", "lower"),
    ("backends.rebuild_s", "s", "lower"),
    ("protocol.frames", "count", "lower"),
    ("protocol.bytes", "bytes", "lower"),
    ("protocol.writes_per_frame", "count", "lower"),
    ("protocol.encode_s", "s", "lower"),
    ("protocol.decode_s", "s", "lower"),
    ("coordinator.queue_wait_ms", "ms", "lower"),
    ("worker.evaluate_ms", "ms", "lower"),
    ("network.shard_rtt_ms", "ms", "lower"),
    ("service.rpc_ms", "ms", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.cell_key_ms", "ms", "lower"),
    ("service.store_load_ms", "ms", "lower"),
    ("service.store_store_ms", "ms", "lower"),
    ("service.store_hit_rate", "ratio", "higher"),
    ("service.shards_dispatched", "count", "lower"),
    ("sweep.compile_s", "s", "lower"),
    ("sweep.rows_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)


def _load(trace_dir: Path) -> list[tuple[str, int, list]]:
    out = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        _, role, pid = path.stem.split("-")
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                out.append((role, int(pid), json.loads(line)))
    return out


def per_layer(run, trace_dir: Path) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the run's traced phase.

    Times are per unit of the workload (one pass, one block of small
    jobs, one replay job) unless their name ends in ``_ms``, which are
    per job, per shard or per call as README.md lists.
    """
    untraced, traced = run.phases[0], run.phases[-1]
    lo, hi = traced.start_ns, traced.end_ns
    units = max(traced.units, 1)
    jobs = max(traced.jobs, 1)
    records = _load(Path(trace_dir))
    spans = [(role, pid, r) for role, pid, r in records if lo <= r[1] and r[2] <= hi]

    dur = defaultdict(float)  # (role or "*", name) -> seconds
    count = defaultdict(int)
    value = defaultdict(int)
    value2 = defaultdict(int)
    children = defaultdict(float)  # (pid, span id) -> seconds of direct children
    names = {}
    for role, pid, r in spans:
        name, start, end, span_id, parent, label = r[0], r[1], r[2], r[3], r[4], r[7]
        seconds = (end - start) / 1e9
        if span_id:
            names[(pid, span_id)] = name
            children[(pid, parent)] += seconds
        for key in ((role, name), ("*", name)):
            dur[key] += seconds
            count[key] += 1
            value[key] += r[8] or 0
            value2[key] += r[9] or 0
        if name == "core.map":
            dur[("map", label)] += seconds
            count[("map", label)] += 1

    def self_time(role, name):
        return sum(
            (r[2] - r[1]) / 1e9 - children[(pid, r[3])]
            for rl, pid, r in spans
            if r[0] == name and (role == "*" or rl == role)
        )

    # Top-level map time: nested map calls (map_workload -> map_ranks)
    # belong to their enclosing call.
    nested = defaultdict(float)
    for role, pid, r in spans:
        if r[0] == "core.map" and names.get((pid, r[4])) == "core.map":
            nested[r[7]] += (r[2] - r[1]) / 1e9

    metrics: dict[str, float] = {}
    for m in MAPPERS:
        metrics[f"core.map_s.{m}"] = (dur[("map", m)] - nested[m]) / units

    def per_call(m):
        calls = count[("map", m)]
        return (dur[("map", m)] - nested[m]) / calls if calls else 0.0

    strips = per_call("stencil_strips")
    metrics["core.graphmap_over_strips"] = per_call("graphmap") / strips if strips else 0.0
    metrics["grid.edges_s"] = dur[("*", "grid.edges")] / units
    metrics["grid.edges_calls"] = count[("*", "grid.edges")] / units
    metrics["workloads.comm_edges_s"] = dur[("*", "workloads.comm_edges")] / units
    metrics["kernels.score_s"] = dur[("*", "kernels.score")] / units
    metrics["kernels.edge_visits"] = value[("*", "kernels.score")] / units
    metric_time = sum(
        (r[2] - r[1]) / 1e9 for _, _, r in spans
        if r[0] == "engine.metric" and r[7] == "topology_hop_cut"
    )
    metrics["engine.metric_s.topology_hop_cut"] = metric_time / units
    metrics["engine.self_s"] = self_time("*", "engine.evaluate_batch") / units

    # Worker engine hit rates over the traced phase.
    snapshots = sorted(
        (r[1], r[7]) for role, _, r in records
        if role == "worker" and r[0] == "engine.cache_stats"
    )
    before = [s for t, s in snapshots if t < lo]
    after = [s for t, s in snapshots if t <= hi]
    for cache in ("edges", "permutations", "costs"):
        if after:
            h1, m1 = after[-1][cache]
            h0, m0 = before[-1][cache] if before else (0, 0)
            looked = (h1 - h0) + (m1 - m0)
            metrics[f"engine.hit_rate.{cache}"] = (h1 - h0) / looked if looked else 0.0
        else:
            metrics[f"engine.hit_rate.{cache}"] = 0.0

    metrics["backends.pool_start_s"] = run.layer.get("backends.pool_start_s", 0.0)
    metrics["backends.shards"] = value[("*", "backends.shards")] / units
    result_bytes = value[("*", "backends.result_bytes")]
    metrics["backends.payload_bytes"] = (
        value[("*", "backends.submit")] + result_bytes
    ) / units
    metrics["backends.wait_s"] = dur[("*", "backends.wait")] / units
    metrics["backends.rebuild_s"] = self_time("*", "backends.rebuild") / units

    frames = count[("*", "protocol.encode")]
    metrics["protocol.frames"] = frames / units
    metrics["protocol.bytes"] = value[("*", "protocol.encode")] / units
    metrics["protocol.writes_per_frame"] = (
        value2[("*", "protocol.encode")] / frames if frames else 0.0
    )
    metrics["protocol.encode_s"] = dur[("*", "protocol.encode")] / units
    metrics["protocol.decode_s"] = dur[("*", "protocol.decode")] / units

    # Per-shard service timings, joined on the daemon's shard ids.
    submitted = {}
    for _, _, r in spans:
        if r[0] == "event.submitted":
            for shard in r[6] or ():
                submitted[shard] = r[1]
    received = {r[6]: r[1] for role, _, r in spans if r[0] == "event.shard_recv"}
    handout = {r[6]: r[1] for role, _, r in spans if r[0] == "event.handout"}
    result_at = {r[6]: r[1] for role, _, r in spans if r[0] == "event.result"}
    evaluate = {}
    for role, pid, r in spans:
        if role == "worker" and r[0] == "engine.evaluate_batch" and not r[4]:
            evaluate[r[6]] = (r[2] - r[1]) / 1e9
    waits = [
        (received[s] - submitted[s]) / 1e6 for s in submitted if s in received
    ]
    rtts = [
        (result_at[s] - handout[s]) / 1e6 - evaluate.get(s, 0.0) * 1e3
        for s in handout
        if s in result_at
    ]
    metrics["coordinator.queue_wait_ms"] = statistics.fmean(waits) if waits else 0.0
    metrics["worker.evaluate_ms"] = (
        statistics.fmean(evaluate.values()) * 1e3 if evaluate else 0.0
    )
    metrics["network.shard_rtt_ms"] = statistics.fmean(rtts) if rtts else 0.0

    metrics["service.rpc_ms"] = run.layer.get("service.rpc_ms", 0.0)
    submits = count[("bench", "service.submit")]
    metrics["service.submit_ms"] = (
        dur[("bench", "service.submit")] / submits * 1e3 if submits else 0.0
    )
    metrics["service.cell_key_ms"] = dur[("daemon", "diskcache.key")] / jobs * 1e3
    metrics["service.store_load_ms"] = dur[("daemon", "diskcache.load")] / jobs * 1e3
    setup_lo, setup_hi = run.setup_window
    metrics["service.store_store_ms"] = sum(
        (r[2] - r[1]) / 1e6 for role, _, r in records
        if role == "daemon" and r[0] == "diskcache.store"
        and setup_lo <= r[1] and r[2] <= setup_hi
    )
    metrics["service.store_hit_rate"] = run.layer.get("service.store_hit_rate", 0.0)
    metrics["service.shards_dispatched"] = run.layer.get("service.shards_dispatched", 0.0)
    metrics["sweep.compile_s"] = dur[("bench", "sweep.compile")] / units
    metrics["sweep.rows_s"] = dur[("bench", "sweep.rows")] / units

    base = untraced.cells_per_s
    metrics["trace.overhead_frac"] = 1.0 - traced.cells_per_s / base if base else 0.0
    job_time = dur[("bench", "job")]
    job_children = sum(
        children[(pid, r[3])] for role, pid, r in spans
        if role == "bench" and r[0] == "job"
    )
    metrics["trace.unattributed_frac"] = (
        (job_time - job_children) / job_time if job_time else 0.0
    )
    return {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}
