"""Benchmark of the mapping stack: one workload per run, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports ``src/repro``).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every row
matched the serial reference and no process or scratch directory of the
run survived it.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import uuid
from pathlib import Path

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent

# The names of ``workloads.WORKLOADS``, listed here so that arguments
# parse (and a checkout without sources fails) before repro is imported.
WORKLOAD_NAMES = (
    "paper_serial_cold",
    "structured_process_cold",
    "service_small_jobs",
    "service_store_replay",
)


class Terminated(BaseException):
    """SIGTERM, turned into an exception so that teardown runs."""


def _on_sigterm(signum, frame):
    raise Terminated()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small unit of work per phase (the benchmark's own tests)",
    )
    parser.add_argument(
        "--plant-mismatch",
        action="store_true",
        help="corrupt one expected digest per job (tests the output check)",
    )
    return parser.parse_args(argv)


def end_to_end(run) -> dict:
    (phase,) = run.phases
    latencies = phase.latencies_ms
    p90 = (
        statistics.quantiles(latencies, n=10)[8]
        if len(latencies) > 1
        else latencies[0]
    )
    scale = phase.latency_scale
    return {
        "cells_per_s": (phase.cells_per_s, "1/s"),
        "job_p50_ms": (statistics.median(latencies) * scale, "ms"),
        "job_p90_ms": (p90 * scale, "ms"),
        # Set-up is compute on every workload and runs right before the
        # timed phase, whose host speed it is scaled by.
        "setup_s": (run.setup_s * phase.speed, "s"),
        "peak_rss_mb": (run.rss.total_mb(), "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import procs

    marker = uuid.uuid4().hex[:16]
    # Exec'd helpers of this process (multiprocessing's resource
    # tracker) inherit the marker too.
    os.environ[procs.MARKER_ENV] = marker
    # Forked children (process-pool workers) die with this process too.
    bench_pid = os.getpid()
    os.register_at_fork(after_in_child=lambda: procs.die_with_parent(bench_pid))
    signal.signal(signal.SIGTERM, _on_sigterm)
    rundir = procs.make_rundir(marker)
    trace_dir = rundir / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    children = procs.Children(marker, rundir, trace_dir)
    run = workload = tracer = None
    measured = interrupted = False
    try:
        from perfbench import workloads
        from perfbench.reference import Reference

        import_s = time.perf_counter() - _START
        if trace_dir is not None:
            from perfbench import tracing

            tracer = tracing.install(str(trace_dir), role="bench")
        run = workloads.Run(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            smoke=args.smoke,
            plant_mismatch=args.plant_mismatch,
            rundir=rundir,
            children=children,
            rss=procs.RssMeter(marker),
            reference=Reference(),
            import_s=import_s,
            tracer=tracer,
        )
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(run)
        workload.prepare(run)
        run.measure(workload)
        workload.after(run)
        run.rss.sample()
        measured = True
    except (KeyboardInterrupt, Terminated):
        interrupted = True
        print("perfbench: interrupted; tearing down", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - reported, then torn down
        import traceback

        traceback.print_exc()
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
    finally:
        # Teardown must finish even if a second signal arrives.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if workload is not None:
            try:
                workload.close(run)
            except Exception as exc:  # noqa: BLE001
                print(f"perfbench: close failed: {exc}", file=sys.stderr)
        children.stop()
        try:
            from multiprocessing import resource_tracker

            resource_tracker._resource_tracker._stop()
        except Exception:  # noqa: BLE001 - best effort; the scan decides
            pass
        layer = None
        if measured and tracer is not None:
            from perfbench import tracing

            tracer.flush()
            layer = tracing.per_layer(run, trace_dir)
        leaked = procs.kill_survivors(marker)
        removed = procs.remove_rundir(rundir)
    if leaked:
        print(f"perfbench: processes survived the run: {leaked}", file=sys.stderr)
    if not removed:
        print(f"perfbench: could not remove {rundir}", file=sys.stderr)
    if interrupted:
        return 128 + signal.SIGINT
    if not measured:
        return 1
    for text in run.problems:
        print(f"perfbench: {text}", file=sys.stderr)
    speeds = ", ".join(f"{phase.name} {phase.speed:.3f}" for phase in run.phases)
    print(f"perfbench: host speed relative to the reference: {speeds}", file=sys.stderr)
    if args.trace:
        metrics = layer
    else:
        metrics = end_to_end(run)
    correct = run.failed == 0 and not leaked and removed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
