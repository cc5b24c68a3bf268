"""Command-line entry point: regenerate any figure, table or sweep.

One subcommand per verb, each taking only the flags it reads, so a flag
that does not apply is a usage error (``VERB --help`` lists the rest)::

    python -m repro.experiments                       # README example sweep
    python -m repro.experiments sweep --backend process:2 --format json
    python -m repro.experiments figure6 [--machine VSC4] [--reps 50]
    python -m repro.experiments figure7 [--machine JUWELS]
    python -m repro.experiments figure8 [--family nearest_neighbor] [--fast]
    python -m repro.experiments figure8 --backend process --shards 4
    python -m repro.experiments figure9
    python -m repro.experiments table II [--reps 50]
    python -m repro.experiments ablations [--backend process:8]
    python -m repro.experiments scaling [--machine VSC4]
    python -m repro.experiments weighted [--machine VSC4]

Every artefact verb renders a human-readable table by default;
``--format json`` / ``--format csv`` emit the run's
:class:`~repro.sweep.ResultSet` serialization instead, and ``--output
PATH`` writes to a file rather than stdout.

Multi-host sweeps run on a standing service daemon: ``serve-jobs``
hosts it, ``work`` (the one worker entry point) attaches each worker
host, and workers stay attached across many jobs from many concurrent
drivers — ``submit``/``status``/``cancel``, or any driver run with
``--backend service:host:port`` (with ``REPRO_CLUSTER_SECRET`` set on
every host).  ``serve-jobs`` binds ``127.0.0.1:7077`` by default and
refuses to bind any other interface without a shared secret or a TLS
certificate::

    python -m repro.experiments serve-jobs --bind 0.0.0.0:7077    # head node
    python -m repro.experiments work --connect head-node:7077 \
        --backend process:8                                       # worker hosts
    python -m repro.experiments submit sweep --connect head-node:7077
    python -m repro.experiments status --connect head-node:7077
    python -m repro.experiments cancel --connect head-node:7077 --job job-000003
    python -m repro.experiments watch --connect head-node:7077

``watch`` renders a live per-job progress table (completion rate, ETA,
queue depth and age, worker-pool and result-store gauges) from the
daemon's METRICS document; ``--format json`` emits the raw document.
``search`` races mapper candidates under a budget instead of sweeping
them exhaustively — one job per rung, so a dominated candidate
evaluates no later instance (a job priority travels in the
``service:host:port:priority`` spec)::

    python -m repro.experiments search --nodes 4,8,16,27 \
        --backend service:head-node:7077

``--secret`` (or ``REPRO_CLUSTER_SECRET``, the only source for a
``--backend service:`` sweep) arms the shared-secret handshake on
every service connection.  ``cache`` reports the ``result`` cells that
engines and service daemons share in the cache directory (``--clear``
empties the store, removing exactly its own files).

Repetition counts default to quick settings; pass ``--reps 200`` for the
paper's sample sizes.  ``--backend`` selects the execution backend of
the batched sweeps (``serial``, the default, runs in-process;
``process[:N]`` shards across worker processes, and
``service:[host:]port[:priority]`` submits to a standing daemon),
``--shards`` overrides a ``process`` backend's worker count and
``--cache-dir`` points the result store at a directory (default:
``$REPRO_CACHE_DIR``; refused with a ``service:`` backend).
"""

from __future__ import annotations

import argparse
import csv
import io
import ipaddress
import json
import math
import signal
import sys
import time

from ..engine import Backend, resolve_backend
from ..sweep import InstanceSpec, ResultSet, SweepRow, SweepSpec, run
from .ablations import (
    ablation_hyperplane_order,
    ablation_nodecart_stencil_aware,
    ablation_strips_distortion,
    ablation_strips_serpentine,
    ablation_topology_aware,
)
from .context import DEFAULT_MAPPER_NAMES, STENCIL_FAMILIES
from .figure6 import figure6_context, figure6_scores, figure6_speedups
from .figure7 import figure7_context, figure7_scores, figure7_speedups
from .figure8 import figure8_reductions, summarize_reductions
from .figure9 import figure9_instantiation_times
from .instances import instance_set
from .report import (
    render_appendix_table,
    render_instantiation,
    render_reduction_summaries,
    render_scores,
    render_speedups,
)
from .scaling import scaling_sweep
from .tables import TABLE_INDEX, appendix_table
from .weighted import weighted_hops_experiment


def _row(
    instance: str,
    stencil: str,
    mapper: str,
    *,
    tags=None,
    ok: bool = True,
    error: str | None = None,
    jsum: int | None = None,
    jmax: int | None = None,
    **metrics,
) -> SweepRow:
    """A derived result row for CLI serialization of post-processed data.

    ``jsum``/``jmax`` land in the row's canonical score columns (the
    ones ``SweepRow.get``/``pivot`` resolve first); everything else
    becomes a ``metrics.*`` column.
    """
    return SweepRow(
        instance=instance,
        stencil=stencil,
        mapper=mapper,
        ok=ok,
        error=error,
        jsum=jsum,
        jmax=jmax,
        metrics=metrics,
        tags=dict(tags or {}),
    )


def _figure(which: int, machine: str, reps: int) -> tuple[str, ResultSet]:
    context = figure6_context() if which == 6 else figure7_context()
    scores = figure6_scores(context) if which == 6 else figure7_scores(context)
    text = io.StringIO()
    print(render_scores(scores), file=text)
    rows = [
        _row(
            f"figure{which}",
            family,
            mapper,
            tags={"kind": "scores"},
            ok=pair is not None,
            error=None if pair is not None else "mapper rejected the instance",
            jsum_score=None if pair is None else pair[0],
            jmax_score=None if pair is None else pair[1],
        )
        for family, per_mapper in scores.items()
        for mapper, pair in per_mapper.items()
    ]
    for family in STENCIL_FAMILIES:
        fn = figure6_speedups if which == 6 else figure7_speedups
        series = fn(machine, family, context=context, repetitions=reps)
        print(f"== speedups on {machine}, {family} ==", file=text)
        print(render_speedups(series), file=text)
        print(file=text)
        rows.extend(
            _row(
                f"figure{which}",
                family,
                mapper,
                tags={"kind": "speedup", "machine": machine},
                message_size=cell.message_size,
                mean_time=cell.mean_time.value,
                ci_low=cell.mean_time.low,
                ci_high=cell.mean_time.high,
                speedup_over_blocked=cell.speedup_over_blocked,
            )
            for mapper, cells in series.items()
            for cell in cells
        )
    return text.getvalue(), ResultSet(rows)


def _figure8(family: str, fast: bool, backend: Backend) -> tuple[str, ResultSet]:
    # Registry names, not Mapper instances: only name-specced cells have
    # a cell key, so only they are stored and answered from a cache.
    mappers = {name: name for name in DEFAULT_MAPPER_NAMES}
    instances = instance_set()
    if fast:
        mappers.pop("graphmap", None)
        instances = instances[::4]
    reductions = figure8_reductions(
        family, mappers=mappers, instances=instances, backend=backend
    )
    summaries = summarize_reductions(reductions)
    text = (
        f"== Figure 8 ({family}), {len(instances)} instances ==\n"
        + render_reduction_summaries(summaries)
    )
    rows = [
        _row(
            inst.label(),
            family,
            mapper,
            tags={"kind": "reduction"},
            ok=not math.isnan(series["jsum"][idx]),
            error=None
            if not math.isnan(series["jsum"][idx])
            else "mapper or blocked baseline failed on this instance",
            jsum_reduction=float(series["jsum"][idx]),
            jmax_reduction=float(series["jmax"][idx]),
        )
        for mapper, series in reductions.items()
        for idx, inst in enumerate(instances)
    ]
    rows.extend(
        _row(
            "summary",
            family,
            s.mapper,
            tags={"kind": "summary"},
            jsum_median=s.jsum_median.value,
            jmax_median=s.jmax_median.value,
            samples=s.samples,
        )
        for s in summaries
    )
    return text, ResultSet(rows)


def _figure9() -> tuple[str, ResultSet]:
    timings = figure9_instantiation_times()
    rows = [
        _row(
            "figure9",
            "nearest_neighbor",
            name,
            tags={"kind": "instantiation"},
            full_mean=t.full.value,
            full_ci_low=t.full.low,
            full_ci_high=t.full.high,
            per_rank_mean=None if t.per_rank is None else t.per_rank.value,
            distributed=t.distributed,
        )
        for name, t in timings.items()
    ]
    return render_instantiation(timings), ResultSet(rows)


def _table(table_id: str, reps: int) -> tuple[str, ResultSet]:
    machine, nodes = TABLE_INDEX[table_id]
    table = appendix_table(machine, nodes, repetitions=reps)
    rows = [
        _row(
            f"N{nodes}",
            family,
            mapper,
            tags={"kind": "table", "table": table_id, "machine": machine},
            ok=ci is not None,
            error=None if ci is not None else "mapper rejected the instance",
            message_size=size,
            mean_time=None if ci is None else ci.value,
            ci_low=None if ci is None else ci.low,
            ci_high=None if ci is None else ci.high,
        )
        for family, per_mapper in table.times.items()
        for mapper, per_size in per_mapper.items()
        for size, ci in per_size.items()
    ]
    return render_appendix_table(table), ResultSet(rows)


def _ablations(backend: Backend) -> tuple[str, ResultSet]:
    text = io.StringIO()
    rows: list[SweepRow] = []
    for key, title, result in (
        ("hyperplane_order", "hyperplane dimension order", ablation_hyperplane_order(backend=backend)),
        ("strips_serpentine", "strips serpentine", ablation_strips_serpentine(backend=backend)),
        ("strips_distortion", "strips distortion", ablation_strips_distortion(backend=backend)),
        ("nodecart_stencil_aware", "nodecart stencil-aware", ablation_nodecart_stencil_aware(backend=backend)),
    ):
        print(f"== {title} ==", file=text)
        for family, res in result.items():
            print(
                f"  {family:<28} baseline={res.baseline}  variant={res.variant}  "
                f"Jsum x{res.jsum_ratio:.2f}  Jmax x{res.jmax_ratio:.2f}",
                file=text,
            )
            rows.append(
                _row(
                    "N50_n48_2d",
                    family,
                    key,
                    tags={"kind": "ablation"},
                    baseline_jsum=res.baseline[0],
                    baseline_jmax=res.baseline[1],
                    variant_jsum=res.variant[0],
                    variant_jmax=res.variant[1],
                    jsum_ratio=res.jsum_ratio,
                    jmax_ratio=res.jmax_ratio,
                )
            )
    print("== topology-aware cost model (VSC4, NN, 512 KiB) ==", file=text)
    for mapper, times in ablation_topology_aware().items():
        print(
            f"  {mapper:<12} flat={times['flat'] * 1e3:8.3f} ms   "
            f"aware={times['topology_aware'] * 1e3:8.3f} ms",
            file=text,
        )
        rows.append(
            _row(
                "N50_n48_2d",
                "nearest_neighbor",
                mapper,
                tags={"kind": "topology_ablation"},
                flat_time=times["flat"],
                topology_aware_time=times["topology_aware"],
            )
        )
    return text.getvalue(), ResultSet(rows)


def _scaling(machine: str, family: str, backend: Backend) -> tuple[str, ResultSet]:
    points = scaling_sweep(machine, family=family, backend=backend)
    rows = [
        _row(
            f"N{p.num_nodes}",
            family,
            mapper,
            tags={"kind": "scaling", "machine": machine},
            jsum=p.jsum,
            jmax=p.jmax,
            jsum_reduction=p.jsum_reduction,
            jmax_reduction=p.jmax_reduction,
            model_speedup=p.model_speedup,
        )
        for mapper, pts in points.items()
        for p in pts
    ]
    results = ResultSet(rows)
    return f"== scaling on {machine}, {family} ==\n" + results.to_table(), results


def _weighted(machine: str, backend: Backend) -> tuple[str, ResultSet]:
    outcome = weighted_hops_experiment(machine, backend=backend)
    rows = [
        _row(
            "N50_n48_2d",
            "nearest_neighbor_with_hops",
            name,
            tags={"kind": "weighted", "machine": machine},
            cut_bytes=r.cut_bytes,
            bottleneck_bytes=r.bottleneck_bytes,
            model_time=r.model_time,
            speedup_over_blocked=r.speedup_over_blocked,
        )
        for name, r in outcome.items()
    ]
    results = ResultSet(rows)
    return (
        f"== weighted hops exchange on {machine} ==\n" + results.to_table(),
        results,
    )


def example_sweep() -> SweepSpec:
    """The README "Declaring your own sweep" example (CI smoke target)."""
    return SweepSpec(
        instances=[InstanceSpec.from_nodes(n, 8) for n in (4, 8)],
        stencils=["nearest_neighbor", "component"],
        mappers=["blocked", "hyperplane", "stencil_strips"],
        tags={"experiment": "example"},
    )


def _sweep(backend: Backend) -> tuple[str, ResultSet]:
    results = run(example_sweep(), backend=backend)
    return results.to_table(), results


#: The artefacts that need no backend, by verb: ``args -> (text,
#: results)``.
_REPORTS = {
    "figure6": lambda args: _figure(6, args.machine, args.reps),
    "figure7": lambda args: _figure(7, args.machine, args.reps),
    "figure9": lambda args: _figure9(),
    "table": lambda args: _table(args.table_id, args.reps),
}

#: The sweeps that run on a backend, by verb (``submit`` runs them by
#: name too): ``(args, backend) -> (text, results)``.
_SWEEPS = {
    "sweep": lambda args, backend: _sweep(backend),
    "figure8": lambda args, backend: _figure8(args.family, args.fast, backend),
    "ablations": lambda args, backend: _ablations(backend),
    "scaling": lambda args, backend: _scaling(args.machine, args.family, backend),
    "weighted": lambda args, backend: _weighted(args.machine, backend),
}

#: Sweeps the ``submit`` verb can run against a standing service daemon.
SUBMIT_TARGETS = tuple(_SWEEPS)


def _emit(args, text: str, results: ResultSet) -> None:
    """Render one artefact per ``--format``/``--output``."""
    if args.format == "json":
        text = results.to_json()
    elif args.format == "csv":
        text = results.to_csv()
    _write_payload(args, text)


def _bind_address(args, parser) -> tuple[str, int]:
    """``--bind`` as ``(host, port)``.  Any bind but loopback (the empty
    host means every interface) needs a shared secret or a TLS
    certificate: ``--secret``/``--tls-cert``, else
    ``REPRO_CLUSTER_SECRET``/``REPRO_TLS_CERT``.  Neither stops the
    daemon from unpickling a peer's handshake frames before it checks
    the secret; only loopback or mutual TLS (``--tls-ca``) keep unknown
    peers out."""
    from ..engine.cluster.protocol import parse_address, resolve_secret, resolve_tls

    try:
        host, port = parse_address(args.bind, default_host="")
    except ValueError as exc:
        parser.error(str(exc))
    try:
        loopback = host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:
        loopback = False
    if not (loopback or resolve_secret(args.secret) or resolve_tls(args.tls_cert)[0]):
        parser.error(
            f"refusing to bind {host or 'every interface'}:{port} with "
            "neither a shared secret nor TLS: pass --secret (or set "
            "REPRO_CLUSTER_SECRET) or --tls-cert, or bind a loopback "
            "address such as 127.0.0.1"
        )
    return host, port


def _run_report(args, parser) -> int:
    """Build one artefact that needs no backend, and emit it."""
    _emit(args, *_REPORTS[args.verb](args))
    return 0


def _run_sweep(args, parser) -> int:
    """Run one sweep on the ``--backend``/``--shards``/``--cache-dir``
    backend, and emit it."""
    options = {}
    if args.cache_dir is not None:
        if (args.backend or "").partition(":")[0] == "service":
            parser.error(
                "--cache-dir does nothing for a service: backend, whose "
                "daemon and workers own the caches; pass it to the daemon "
                "(serve-jobs --cache-dir) and workers (work --cache-dir)"
            )
        options["disk_cache_dir"] = args.cache_dir
    try:
        backend = resolve_backend(args.backend, shards=args.shards, **options)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        _emit(args, *_SWEEPS[args.verb](args, backend))
    finally:
        backend.close()
    return 0


def _work(args, parser) -> int:
    """Serve a service daemon as a worker until it shuts down."""
    from ..engine.cluster.worker import run_worker

    try:
        return run_worker(
            args.connect,
            backend_spec=args.backend,
            shards=args.shards,
            cache_dir=args.cache_dir,
            connect_timeout=args.connect_timeout,
            reconnect_timeout=args.reconnect_timeout,
            secret=args.secret,
            tls_ca=args.tls_ca,
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _write_payload(args, payload: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload)


def _emit_records(args, records: list[dict], columns: list[str]) -> None:
    """Render plain (non-sweep) records per ``--format``/``--output``."""
    if args.format == "json":
        payload = json.dumps(records, indent=2)
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        for record in records:
            writer.writerow({c: record.get(c) for c in columns})
        payload = buffer.getvalue().rstrip("\n")
    else:
        cells = [
            ["" if r.get(c) is None else str(r.get(c)) for c in columns]
            for r in records
        ]
        widths = [
            max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
            for i, c in enumerate(columns)
        ]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
        lines += [
            "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
            for row in cells
        ]
        payload = "\n".join(lines)
    _write_payload(args, payload)


#: Columns of the `status` listing.
_STATUS_COLUMNS = [
    "job",
    "state",
    "priority",
    "client",
    "shards",
    "completed",
    "label",
    "submitted",
]


def _interrupt(signum, frame) -> None:
    """Signal handler: stop the way Ctrl-C does."""
    raise KeyboardInterrupt


def _serve_jobs(args, parser) -> int:
    """Host a standing sweep service until interrupted.

    SIGTERM stops it like Ctrl-C: a background job of a non-interactive
    shell starts with SIGINT ignored, so ``kill -TERM`` is the signal
    that reliably reaches it.
    """
    from ..service import ServiceDaemon

    host, port = _bind_address(args, parser)
    try:
        daemon = ServiceDaemon(
            host,
            port,
            secret=args.secret,
            disk_cache_dir=args.cache_dir,
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
            tls_ca=args.tls_ca,
            max_client_jobs=args.max_client_jobs,
            max_client_queued=args.max_client_queued,
            store_max_bytes=args.store_max_bytes,
            store_ttl=args.store_ttl,
        )
    except ValueError as exc:
        parser.error(str(exc))
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        print(
            f"service daemon listening on {daemon.host}:{daemon.port}",
            flush=True,
        )
        print(
            f"  workers: python -m repro.experiments work "
            f"--connect HOST:{daemon.port}",
            flush=True,
        )
        print(
            f"  drivers: python -m repro.experiments submit sweep "
            f"--connect HOST:{daemon.port}  (or any run with "
            f"--backend service:HOST:{daemon.port})",
            flush=True,
        )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("service daemon interrupted; shutting down", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        daemon.close()
    return 0


def _connect(args, parser, cls, **options):
    """A *cls* (``ServiceClient`` or ``ServiceBackend``) for the daemon at
    ``--connect``, with the verb's secret, tenant and TLS flags."""
    from ..engine.cluster import parse_address

    try:
        host, port = parse_address(args.connect, default_host="127.0.0.1")
    except ValueError as exc:
        parser.error(str(exc))
    return cls(
        host,
        port,
        secret=args.secret,
        tenant=args.tenant or "",
        tls_ca=args.tls_ca,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
        **options,
    )


def _client(args, parser):
    from ..service import ServiceClient

    return _connect(args, parser, ServiceClient)


def _submit(args, parser) -> int:
    """Run one sweep as a job on a standing service daemon."""
    from ..service import ServiceBackend

    backend = _connect(args, parser, ServiceBackend, priority=args.priority)
    try:
        _emit(args, *_SWEEPS[args.sweep](args, backend))
    finally:
        backend.close()
    return 0


def _status(args, parser) -> int:
    """List a standing service daemon's jobs.

    ``--format json`` emits the daemon's full STATUS document — job
    records plus per-client fair-share/quota counters plus worker-pool
    gauges; the table/CSV renderings keep to the job records.
    """
    with _client(args, parser) as client:
        doc = client.status_full(args.job)
    records = [dict(r) for r in doc.get("jobs", [])]
    for record in records:
        stamp = record.pop("submitted_at", None)
        record["submitted"] = (
            None
            if stamp is None
            else time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))
        )
    if args.format == "json":
        _write_payload(
            args, json.dumps({**doc, "jobs": records}, indent=2)
        )
    else:
        _emit_records(args, records, _STATUS_COLUMNS)
    if args.job is not None and not records:
        print(f"no such job: {args.job}", file=sys.stderr)
        return 1
    return 0


def _cancel(args, parser) -> int:
    """Cancel one job on a standing service daemon."""
    with _client(args, parser) as client:
        cancelled = client.cancel(args.job)
    if cancelled:
        print(f"cancelled {args.job}")
        return 0
    print(f"{args.job} is unknown or already finished", file=sys.stderr)
    return 1


#: Columns of the `watch` per-job progress table.
_WATCH_COLUMNS = [
    "job",
    "state",
    "priority",
    "shards",
    "completed",
    "remaining",
    "progress",
    "rate",
    "eta",
]


def _watch_records(doc: dict) -> list[dict]:
    """Per-job progress records from one METRICS document."""
    records = []
    for job in doc.get("jobs", []):
        record = {
            key: job.get(key)
            for key in ("job", "state", "priority", "shards", "completed", "remaining")
        }
        progress = job.get("progress")
        record["progress"] = (
            None if progress is None else f"{progress * 100:.0f}%"
        )
        rate = job.get("rate")
        record["rate"] = None if rate is None else f"{rate:.2f}/s"
        eta = job.get("eta")
        record["eta"] = None if eta is None else f"{eta:.1f}s"
        records.append(record)
    return records


def _watch(args, parser) -> int:
    """Render a daemon's live METRICS snapshot(s).

    The table form refreshes every ``--interval`` seconds until
    interrupted; ``--once`` (implied by ``--format json``/``csv``)
    renders a single snapshot.  ``--format json`` emits the raw
    ``repro.metrics/v1`` document — per-job progress/ETA, queue depth
    *and* age, per-tenant counters, worker-pool gauges and result-store
    hit rates.
    """
    client = _client(args, parser)
    once = args.once or args.format != "table"
    try:
        while True:
            doc = client.metrics()
            if args.format == "json":
                _write_payload(args, json.dumps(doc, indent=2))
            else:
                if args.format == "table":
                    queue = doc.get("queue", {})
                    pool = doc.get("pool", {})
                    store = doc.get("store") or {}
                    stamp = time.strftime(
                        "%H:%M:%S", time.localtime(doc.get("time", time.time()))
                    )
                    hit_rate = store.get("hit_rate")
                    print(
                        f"[{stamp}] queue depth={queue.get('depth', 0)} "
                        f"oldest={queue.get('oldest_age', 0.0):.1f}s  "
                        f"workers={pool.get('workers', 0)} "
                        f"busy={pool.get('busy', 0)}  store hits="
                        + (
                            "n/a"
                            if hit_rate is None
                            else f"{hit_rate * 100:.0f}%"
                        )
                    )
                _emit_records(args, _watch_records(doc), _WATCH_COLUMNS)
            if once:
                return 0
            time.sleep(args.interval)
            if args.format == "table":
                print()
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


#: Columns of the `search` candidate audit table.
_SEARCH_COLUMNS = [
    "candidate",
    "status",
    "rung",
    "instances",
    "cells",
    "score",
    "reason",
]


def _parse_topology(text: str):
    """Build a machine topology from a CLI spec like ``torus3d:4x4x4``.

    Accepted kinds: ``torus3d:XxYxZ``, ``dragonfly:G[xR[xN]]``,
    ``fat_tree:N[xS]``, ``island:N``, ``single_switch:N``.
    """
    from ..hardware.topology import (
        DragonflyTopology,
        FatTreeTopology,
        IslandTopology,
        SingleSwitchTopology,
        Torus3DTopology,
    )

    kind, _, rest = text.partition(":")
    if not rest:
        raise ValueError(
            f"topology spec {text!r} needs parameters after ':' "
            "(e.g. torus3d:4x4x4)"
        )
    try:
        parts = [int(p) for p in rest.split("x")]
    except ValueError:
        raise ValueError(
            f"invalid topology parameters {rest!r} in {text!r}; expected "
            "'x'-separated integers"
        ) from None
    if kind == "torus3d":
        if len(parts) != 3:
            raise ValueError(
                f"torus3d needs three extents (e.g. torus3d:4x4x4), got {rest!r}"
            )
        return Torus3DTopology(tuple(parts))
    if kind == "dragonfly":
        if not 1 <= len(parts) <= 3:
            raise ValueError(
                f"dragonfly takes groups[xrouters[xnodes]], got {rest!r}"
            )
        return DragonflyTopology(*parts)
    if kind == "fat_tree":
        if not 1 <= len(parts) <= 2:
            raise ValueError(
                f"fat_tree takes nodes[xnodes_per_switch], got {rest!r}"
            )
        return FatTreeTopology(*parts)
    if kind == "island":
        if len(parts) != 1:
            raise ValueError(f"island takes a node count, got {rest!r}")
        return IslandTopology(parts[0])
    if kind == "single_switch":
        if len(parts) != 1:
            raise ValueError(f"single_switch takes a node count, got {rest!r}")
        return SingleSwitchTopology(parts[0])
    raise ValueError(
        f"unknown topology kind {kind!r}; expected torus3d, dragonfly, "
        "fat_tree, island or single_switch"
    )


def _search(args, parser) -> int:
    """Race mapper candidates with the portfolio-search driver."""
    from ..engine.metrics import topology_cut_metric
    from ..exceptions import ReproError, SearchError
    from ..search import SearchSpec, run_search

    metrics: list = []
    if args.topology is not None:
        try:
            topology = _parse_topology(args.topology)
            metrics.append(
                topology_cut_metric(topology, contention=args.contention)
            )
        except (ReproError, TypeError, ValueError) as exc:
            parser.error(str(exc))
    elif args.contention:
        parser.error("--contention requires --topology KIND:PARAMS")
    try:
        nodes = [
            int(part) for part in args.nodes.split(",") if part.strip()
        ]
    except ValueError:
        parser.error(f"--nodes must be a comma list of node counts, got {args.nodes!r}")
    if not nodes:
        parser.error("--nodes needs at least one node count")
    candidates = (
        [part.strip() for part in args.mappers.split(",") if part.strip()]
        if args.mappers
        else None
    )
    try:
        spec = SearchSpec(
            [InstanceSpec.from_nodes(n, args.ppn) for n in nodes],
            **({"candidates": candidates} if candidates else {}),
            stencils=[args.family],
            metrics=metrics,
            objective=args.objective,
            eta=args.eta,
            min_instances=args.min_instances,
            seed=args.seed,
            budget_seconds=args.budget_seconds,
            max_cells=args.max_cells,
        )
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    try:
        result = run_search(spec, backend=args.backend)
    except SearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _write_payload(args, result.to_json())
        return 0
    if args.format == "table":
        print(
            f"winner: {result.winner}  ({result.objective}"
            f"{'' if result.minimize else ', maximized'}; "
            f"{result.cells_evaluated}/{result.exhaustive_cells} cells "
            f"evaluated, {'complete' if result.complete else 'budget-cut'}, "
            f"{result.elapsed:.1f}s)"
        )
        print(
            f"rungs: {','.join(str(r) for r in result.rungs)}  "
            f"instance order: {','.join(result.instance_order)}  "
            f"seed: {result.seed}"
        )
    _emit_records(args, result.to_records(), _SEARCH_COLUMNS)
    return 0


def _cache(args, parser) -> int:
    """Report (and optionally clear or prune) the result store.

    One ``result`` record for the cells that engines and service
    daemons share in the cache directory.  ``--prune --max-bytes N``
    LRU-evicts cells (oldest access first — loads bump mtime) until
    they fit the budget.  Files of any other name, such as the
    ``edges-*.npy`` arrays and ``perm-``/``cost-``/``metric-`` entries
    of older releases, are never read, cleared or pruned.
    """
    from ..engine.diskcache import DiskStore, prune, resolve_cache_dir

    directory = resolve_cache_dir(args.cache_dir)
    if directory is None:
        raise SystemExit(
            "no cache directory configured; pass --cache-dir or set "
            "REPRO_CACHE_DIR"
        )
    if args.prune and args.max_bytes is None:
        parser.error("--prune requires --max-bytes N")
    if args.max_bytes is not None and not args.prune:
        parser.error("--max-bytes only applies with --prune")
    if args.prune and args.max_bytes < 0:
        parser.error("--max-bytes must be >= 0")
    columns = ["kind", "dir", "entries", "bytes"]
    if args.clear or args.prune:
        columns.append("removed")
    store = DiskStore(directory)
    record: dict = {"kind": store.kind, "dir": str(directory)}
    if args.clear:
        record["removed"] = store.clear()
    elif args.prune:
        record["removed"] = prune(directory, args.max_bytes)[store.kind]
    stats = store.stats()
    record.update(entries=stats.entries, bytes=stats.total_bytes)
    _emit_records(args, [record], columns)
    return 0


#: Every flag's ``add_argument`` keywords, declared once; ``_VERBS``
#: attaches each to the verbs that read it.
_FLAGS: dict[str, dict] = {
    "--format": dict(
        choices=["table", "json", "csv"],
        default="table",
        help="output format: human-readable table (default), or the "
        "ResultSet as JSON/CSV",
    ),
    "--output": dict(
        metavar="PATH", help="write the rendered output to a file, not stdout"
    ),
    "--backend": dict(
        help="execution backend: serial (default, in-process), process[:N] "
        "or service:[host:]port[:priority]; for work, the worker's local "
        "backend"
    ),
    "--shards": dict(
        type=int,
        help="worker processes of a process backend (overrides its :N suffix)",
    ),
    "--cache-dir": dict(
        help="persistent cache directory (default: $REPRO_CACHE_DIR)"
    ),
    "--secret": dict(
        help="shared service secret armoring every connection "
        "(default: $REPRO_CLUSTER_SECRET; empty disables)"
    ),
    "--tls-cert": dict(
        metavar="PATH",
        help="serve-jobs: serve over TLS with this certificate "
        "(default: $REPRO_TLS_CERT); other verbs: client certificate for "
        "mutual TLS",
    ),
    "--tls-key": dict(
        metavar="PATH",
        help="private key of --tls-cert (default: $REPRO_TLS_KEY, or "
        "inside the certificate file)",
    ),
    "--tls-ca": dict(
        metavar="PATH",
        help="trust root the daemon's TLS certificate must verify against "
        "(a self-signed daemon's own certificate works; default: "
        "$REPRO_TLS_CA); serve-jobs: demand client certificates "
        "signed by it",
    ),
    "--connect": dict(
        required=True,
        metavar="HOST:PORT",
        help="address of the coordinator or service daemon",
    ),
    "--tenant": dict(
        metavar="NAME",
        help="fair-share identity declared to the daemon; clients naming "
        "the same tenant share one accounting bucket (default: the shared "
        "default tenant)",
    ),
    "--machine": dict(default="VSC4", help="machine model (default: VSC4)"),
    "--family": dict(
        default="nearest_neighbor", help="stencil family (default: nearest_neighbor)"
    ),
    "--reps": dict(type=int, default=50, help="timing repetitions (default: 50)"),
    "--fast": dict(
        action="store_true", help="every 4th instance, and no graphmap"
    ),
    "--bind": dict(
        default="127.0.0.1:7077",
        metavar="[HOST:]PORT",
        help="bind address (default: 127.0.0.1:7077); any non-loopback "
        "address needs --secret or --tls-cert, and should still be "
        "reachable from trusted hosts only",
    ),
    "--priority": dict(
        type=int, default=0, help="job priority (larger is scheduled first)"
    ),
    "--connect-timeout": dict(
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial connection",
    ),
    "--reconnect-timeout": dict(
        type=float,
        default=60.0,
        help="seconds to keep retrying after losing an established "
        "coordinator (0 exits immediately instead)",
    ),
    "--max-client-jobs": dict(
        type=int,
        default=0,
        metavar="N",
        help="per-client admission quota on live jobs (0 = unlimited); "
        "over-quota submissions are REJECTED",
    ),
    "--max-client-queued": dict(
        type=int,
        default=0,
        metavar="N",
        help="per-client admission quota on queued shards (0 = unlimited)",
    ),
    "--store-max-bytes": dict(
        type=int,
        metavar="N",
        help="auto-prune the daemon's result store (LRU, oldest access "
        "first) to this size budget periodically",
    ),
    "--store-ttl": dict(
        type=float,
        metavar="SECONDS",
        help="auto-prune result-store entries older than this many seconds "
        "(combines with --store-max-bytes)",
    ),
    "--interval": dict(
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between table refreshes (default: 2)",
    ),
    "--once": dict(
        action="store_true", help="render a single snapshot instead of refreshing"
    ),
    "--nodes": dict(
        default="4,8,16,27",
        metavar="N,N,...",
        help="comma list of node counts forming the instance set "
        "(default: 4,8,16,27)",
    ),
    "--ppn": dict(
        type=int,
        default=8,
        metavar="N",
        help="processes per node of each instance (default: 8)",
    ),
    "--mappers": dict(
        metavar="NAME,NAME,...",
        help="comma list of candidate mappers to race (default: the paper's "
        "seven algorithms)",
    ),
    "--objective": dict(
        default="jsum",
        metavar="COLUMN",
        help="result column to minimize (default: jsum)",
    ),
    "--eta": dict(
        type=int, default=2, metavar="N", help="successive-halving factor (default: 2)"
    ),
    "--min-instances": dict(
        type=int,
        default=1,
        metavar="N",
        help="instance-prefix length of the first rung (default: 1)",
    ),
    "--seed": dict(
        type=int, default=0, metavar="N", help="instance-shuffle seed (default: 0)"
    ),
    "--budget-seconds": dict(
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the deepest fully ranked rung "
        "decides the winner",
    ),
    "--max-cells": dict(
        type=int,
        metavar="N",
        help="evaluated-cell budget; a rung that would pass it is not run, "
        "and the last ranked rung decides the winner",
    ),
    "--topology": dict(
        metavar="KIND:PARAMS",
        help="machine topology scoring every cell with the hop-weighted cut "
        "columns hop_cut/hop_max (torus3d:4x4x4, dragonfly:2x4x4, "
        "fat_tree:64x32, island:64, single_switch:16); combine with "
        "--objective hop_cut",
    ),
    "--contention": dict(
        action="store_true",
        help="also divide cross-leaf hop costs of --topology by its up-link "
        "capacity fraction (models blocked up-links)",
    ),
    "--max-bytes": dict(
        type=int, metavar="N", help="size budget for --prune, in bytes"
    ),
}

#: The flag sets several verbs share.
_OUTPUT = ("--format", "--output")
_BACKEND = ("--backend", "--shards", "--cache-dir")
_AUTH = ("--secret", "--tls-cert", "--tls-key", "--tls-ca")
_CLIENT = ("--connect", "--tenant")

#: Every verb: its handler, the flags it reads, and its help line.
_VERBS = {
    "sweep": (_run_sweep, _BACKEND + _OUTPUT, "the README example sweep"),
    "figure6": (
        _run_report,
        ("--machine", "--reps", *_OUTPUT),
        "Figure 6: mapping scores and speedups at N=50",
    ),
    "figure7": (
        _run_report,
        ("--machine", "--reps", *_OUTPUT),
        "Figure 7: mapping scores and speedups at N=100",
    ),
    "figure8": (
        _run_sweep,
        ("--family", "--fast", *_BACKEND, *_OUTPUT),
        "Figure 8: Jsum/Jmax reductions over the instance set",
    ),
    "figure9": (_run_report, _OUTPUT, "Figure 9: mapper instantiation times"),
    "table": (_run_report, ("--reps", *_OUTPUT), "appendix Tables II-VII"),
    "ablations": (_run_sweep, _BACKEND + _OUTPUT, "the design-choice ablations"),
    "scaling": (
        _run_sweep,
        ("--machine", "--family", *_BACKEND, *_OUTPUT),
        "mapping quality and modelled speedup across node counts",
    ),
    "weighted": (
        _run_sweep,
        ("--machine", *_BACKEND, *_OUTPUT),
        "the weighted hops exchange",
    ),
    "work": (
        _work,
        ("--connect", *_BACKEND, *_AUTH, "--connect-timeout", "--reconnect-timeout"),
        "evaluate shards for a service daemon (the worker entry point)",
    ),
    "serve-jobs": (
        _serve_jobs,
        ("--bind", "--cache-dir", *_AUTH)
        + ("--max-client-jobs", "--max-client-queued")
        + ("--store-max-bytes", "--store-ttl"),
        "host a standing sweep service until interrupted",
    ),
    "submit": (
        _submit,
        ("--family", "--fast", "--machine", "--priority", *_CLIENT, *_AUTH)
        + _OUTPUT,
        "run one sweep as a job on a standing service daemon",
    ),
    "status": (_status, _CLIENT + _AUTH + _OUTPUT, "list a daemon's jobs"),
    "cancel": (_cancel, _CLIENT + _AUTH, "cancel one job on a daemon"),
    "watch": (
        _watch,
        _CLIENT + _AUTH + _OUTPUT + ("--interval", "--once"),
        "render a daemon's live METRICS document",
    ),
    "search": (
        _search,
        ("--family", "--backend", *_OUTPUT)
        + ("--nodes", "--ppn", "--mappers", "--objective", "--eta")
        + ("--min-instances", "--seed", "--budget-seconds", "--max-cells")
        + ("--topology", "--contention"),
        "race mapper candidates under a budget",
    ),
    "cache": (
        _cache,
        ("--cache-dir", *_OUTPUT, "--max-bytes"),
        "report, clear or prune the persistent caches",
    ),
}


def _parser():
    """The top-level parser and its action holding one subparser per verb."""
    parser = argparse.ArgumentParser(prog="repro.experiments")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for name, (handler, flags, text) in _VERBS.items():
        verb = verbs.add_parser(name, help=text, description=text)
        verb.set_defaults(handler=handler)
        for flag in flags:
            verb.add_argument(flag, **_FLAGS[flag])
    sub = verbs.choices
    sub["table"].add_argument("table_id", choices=list(TABLE_INDEX))
    sub["submit"].add_argument(
        "sweep", nargs="?", default="sweep", choices=SUBMIT_TARGETS
    )
    sub["status"].add_argument("--job", metavar="JOB_ID", help="only this job")
    sub["cancel"].add_argument("--job", required=True, metavar="JOB_ID")
    clear_or_prune = sub["cache"].add_mutually_exclusive_group()
    clear_or_prune.add_argument(
        "--clear", action="store_true", help="delete every cached entry"
    )
    clear_or_prune.add_argument(
        "--prune",
        action="store_true",
        help="LRU-evict result cells (oldest access first) until they "
        "fit --max-bytes",
    )
    return parser, verbs


def main(argv: list[str] | None = None) -> int:
    parser, verbs = _parser()
    args = parser.parse_args((sys.argv[1:] if argv is None else argv) or ["sweep"])
    return args.handler(args, verbs.choices[args.verb])


if __name__ == "__main__":
    sys.exit(main())
