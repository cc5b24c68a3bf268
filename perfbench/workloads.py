"""The four benchmark workloads.

Each workload is driven by one closed-loop client: it submits a job
(one ``repro.run`` of a ``SweepSpec``), waits for its rows, checks them
against the serial reference and only then submits the next one.  A
job's latency runs from the submit until ``ResultSet.to_rows()``
returns; the timed wall time of a run is the sum of its job latencies.
A calibration loop timed before each job gives the host's speed, to
which the compute-bound workloads scale their latencies (``clock.py``).

Runs are made of whole *units* (a pass over a fixed cell set, or one
balanced block of jobs) so that every run measures the same multiset of
work whatever the seed; the seed only changes the order of that work
and, for ``paper_serial_cold``, the generated graph workload.  See
README.md for why each workload exists.
"""

from __future__ import annotations

import random
import re
import signal
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro import (
    EvaluationEngine,
    InstanceSpec,
    NodeAllocation,
    ProcessBackend,
    ServiceBackend,
    ServiceClient,
    SweepSpec,
    Torus3DTopology,
    topology_cut_metric,
)
from repro.experiments.figure8 import figure8_sweep
from repro.experiments.instances import instance_set
from repro.sweep import DEFAULT_MAPPER_NAMES, STENCIL_FAMILIES, WORKLOAD_AXIS
from repro.workloads import StencilProgramWorkload, as_workload, clustered_workload

from . import clock
from .procs import Children, RssMeter
from .reference import Reference, row_digest, row_key

#: Seed whose generated graph has a committed reference digest.
DEFAULT_SEED = 0
#: How often a cheap set-up step is repeated; ``setup_s`` uses the median.
SETUP_REPEATS = 3
#: Service runs go on until at least this many jobs, so that ten jobs
#: lie beyond the reported p90.
MIN_SERVICE_JOBS = 100
#: Replay jobs between two STATUS reads (the daemon keeps 64 per client).
STATUS_EVERY = 40
#: Hard cap on one run's measuring, whatever its unit sizes.
MAX_MEASURE_S = 120.0

STRUCTURED_MAPPERS = tuple(m for m in DEFAULT_MAPPER_NAMES if m != "graphmap")
SMALL_MAPPERS = ("blocked", "hyperplane", "kd_tree", "stencil_strips")
SMALL_NODES = (8, 10, 12, 15, 18, 20)
#: Instances per job in one block of small jobs.  Latency grows with
#: the shard count, so every block holds the same sizes; the repeated 3
#: puts the median inside one size's cluster instead of on the edge
#: between two.
BLOCK_SIZES = (1, 2, 3, 3, 4, 5, 6)
TORUS = topology_cut_metric(Torus3DTopology((4, 4, 2)))
#: The 31 x 32 allocation of the program and graph workloads.
GRAPH_ALLOC = (31, 32)
#: Figure 6 calibration anchors: (mapper, Jsum, Jmax) on 50 x 48.
FIGURE6_ANCHORS = (("blocked", 4704, 96), ("stencil_strips", 1244, 28))


# ----------------------------------------------------------------------
# Cell sets (shared with reference.py)
# ----------------------------------------------------------------------
def paper_instances() -> list:
    """The Figure 8 instance set (144 instances)."""
    return instance_set()


def paper_spec(instances) -> SweepSpec:
    """Instances x ``nearest_neighbor`` x the seven paper mappers."""
    return figure8_sweep("nearest_neighbor", instances=instances)


def program_spec() -> SweepSpec:
    """A 2-stage stencil program on 31 x 32 x the seven mappers."""
    alloc = NodeAllocation.homogeneous(*GRAPH_ALLOC)
    grid = repro.CartesianGrid(repro.dims_create(alloc.total_processes, 2))
    program = StencilProgramWorkload(
        grid,
        [
            ("advect", repro.nearest_neighbor(2)),
            ("diffuse", repro.nearest_neighbor_with_hops(2)),
        ],
    )
    return SweepSpec(
        [InstanceSpec.from_workload(program, alloc, label="program")],
        stencils=[WORKLOAD_AXIS],
        mappers=DEFAULT_MAPPER_NAMES,
    )


def graph_spec(seed: int) -> SweepSpec:
    """A seeded clustered graph on 31 x 32 x ``graphmap``."""
    nodes, size = GRAPH_ALLOC
    graph = as_workload(
        clustered_workload(
            nodes, size, intra_degree=6, inter_links=2, seed=seed % 2**32
        )
    )
    alloc = NodeAllocation.homogeneous(nodes, size)
    return SweepSpec(
        [InstanceSpec.from_workload(graph, alloc, label="clustered")],
        stencils=[WORKLOAD_AXIS],
        mappers=["graphmap"],
    )


def structured_spec(instances, family: str) -> SweepSpec:
    """Instances x one stencil family x six mappers, torus-scored."""
    return SweepSpec(
        instances, stencils=[family], mappers=STRUCTURED_MAPPERS, metrics=[TORUS]
    )


def small_pool() -> list[InstanceSpec]:
    """The six instance shapes of the small service jobs."""
    return [InstanceSpec.from_nodes(n, 24) for n in SMALL_NODES]


def small_spec(instances) -> SweepSpec:
    return SweepSpec(instances, stencils=["nearest_neighbor"], mappers=SMALL_MAPPERS)


def cell_keys(spec: SweepSpec) -> list[str]:
    """Row keys of a spec's cells, in cell order, without compiling it."""
    return [
        f"{instance.label}|{stencil}|{mapper}"
        for instance in spec.instances
        for stencil, _ in spec.stencils
        for mapper, _ in spec.mappers
    ]


# ----------------------------------------------------------------------
# Run state
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One timed stretch of a run (traced runs have two)."""

    name: str
    seconds: float
    min_jobs: int = 0
    #: Whether job latencies are scaled to the reference speed.
    scaled: bool = False
    units: int = 0
    timed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: Latencies per job slot: the same job repeated in every unit.
    slots: dict[str, list[float]] = field(default_factory=dict)
    slot_cells: dict[str, int] = field(default_factory=dict)
    #: Calibration loop times, one before each job.
    samples_ms: list[float] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    def done(self, smoke: bool, started: float) -> bool:
        if smoke:
            return self.units >= 1
        if time.perf_counter() - started > MAX_MEASURE_S:
            return True
        return self.timed_s >= self.seconds and self.jobs >= self.min_jobs

    @property
    def jobs(self) -> int:
        return len(self.latencies_ms)

    @property
    def speed(self) -> float:
        """The host's speed over the phase relative to the reference."""
        return clock.speed(self.samples_ms) if self.samples_ms else 1.0

    @property
    def latency_scale(self) -> float:
        """Factor from measured to reported job latencies."""
        return self.speed if self.scaled else 1.0

    @property
    def cells_per_s(self) -> float:
        """Cells of one unit over the sum of its slots' median latencies.

        Medians across units keep a burst of load from other processes
        on the host out of the figure.
        """
        seconds = sum(statistics.median(v) for v in self.slots.values()) / 1e3
        seconds *= self.latency_scale
        return sum(self.slot_cells.values()) / seconds if seconds else 0.0


@dataclass
class Run:
    """Inputs, helpers and outcome of one benchmark run."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    plant_mismatch: bool
    rundir: Path
    children: Children
    rss: RssMeter
    reference: Reference
    import_s: float
    tracer: object | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    setup_window: tuple[int, int] = (0, 0)
    phases: list[Phase] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)

    # -- tracing --------------------------------------------------------
    def span(self, name: str, job=None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, job=job)

    def set_tracing(self, enabled: bool) -> None:
        """Switch span recording here and in every launched child."""
        if self.tracer is None:
            return
        self.tracer.set_enabled(enabled)
        self.children.signal_all(signal.SIGUSR1 if enabled else signal.SIGUSR2)
        time.sleep(0.05)  # let the children's handlers run

    # -- checks ---------------------------------------------------------
    def problem(self, text: str) -> None:
        self.problems.append(text)

    def check_rows(self, rows, keys: list[str], expected: list[str], what: str) -> None:
        """Count the cells that differ from the reference as failed."""
        self.attempted += len(keys)
        if rows is None:
            bad = len(keys)
        elif len(rows) != len(keys):
            bad = len(keys)
            self.problem(f"{what}: {len(rows)} rows for {len(keys)} cells")
        else:
            bad = 0
            for row, key, digest in zip(rows, keys, expected):
                if row_key(row) != key or row_digest(row) != digest:
                    bad += 1
                    if bad == 1:
                        self.problem(f"{what}: row {key} differs from the reference")
        self.failed += bad

    def expected(self, section: str, keys: list[str]) -> list[str]:
        digests = [self.reference.digest(section, key, self.seed) for key in keys]
        if self.plant_mismatch and digests:
            digests[0] = "planted-mismatch"
        return digests

    # -- timing ---------------------------------------------------------
    def timed_job(self, phase: Phase, slot: str, spec_fn, backend, keys, expected):
        """One closed-loop job: submit, wait for the rows, check them."""
        spec = spec_fn()
        rows = None
        phase.samples_ms.append(clock.sample_ms())
        start = time.perf_counter()
        with self.span("job", job=f"{phase.name}{phase.jobs}"):
            try:
                rows = repro.run(spec, backend=backend).to_rows()
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                self.problem(f"job failed: {type(exc).__name__}: {exc}")
        elapsed_ms = (time.perf_counter() - start) * 1e3
        phase.timed_s += elapsed_ms / 1e3
        phase.latencies_ms.append(elapsed_ms)
        phase.slots.setdefault(slot, []).append(elapsed_ms)
        phase.slot_cells[slot] = 0 if rows is None else len(rows)
        self.check_rows(rows, keys, expected, self.workload)

    def measure(self, workload: "Workload") -> None:
        """Run the timed phases: one plain, or untraced then traced."""
        scaled = workload.scaled
        if self.tracer is None:
            plan = [Phase("main", self.seconds, workload.min_jobs, scaled)]
        else:
            half = self.seconds / 2
            plan = [
                Phase("untraced", half, scaled=scaled),
                Phase("traced", half, scaled=scaled),
            ]
        for phase in plan:
            self.set_tracing(phase.name == "traced")
            started = time.perf_counter()
            phase.start_ns = time.monotonic_ns()
            while not phase.done(self.smoke, started):
                failed_before = self.failed
                workload.unit(self, phase)
                phase.units += 1
                if self.failed > failed_before and not self.plant_mismatch:
                    break  # a broken system ends the run early
            phase.end_ns = time.monotonic_ns()
            self.phases.append(phase)
        self.set_tracing(False)  # the probes that follow run untraced

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.workload}:{salt}:{self.seed}")


class Workload:
    """Set up once, then repeat :meth:`unit` until the phase is done."""

    min_jobs = 0
    #: Scale job latencies to the reference speed: set where the jobs
    #: are compute, not waits on timers and round trips.
    scaled = False

    def setup(self, run: Run) -> None:
        """Start what the workload needs; sets ``run.setup_s``."""
        raise NotImplementedError

    def prepare(self, run: Run) -> None:
        """Reference rows and anchor checks, outside ``setup_s``."""

    def unit(self, run: Run, phase: Phase) -> None:
        raise NotImplementedError

    def after(self, run: Run) -> None:
        """Checks and probes after the timed phases."""

    def close(self, run: Run) -> None:
        """Release what the run's teardown does not stop itself."""


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def check_anchors(run: Run, backend) -> None:
    """Pin the Figure 6 anchors on the workload's own backend."""
    spec = SweepSpec(
        [InstanceSpec.from_nodes(50, 48)],
        stencils=["nearest_neighbor"],
        mappers=[m for m, _, _ in FIGURE6_ANCHORS],
    )
    rows = repro.run(spec, backend=backend).to_rows()
    run.attempted += len(FIGURE6_ANCHORS)
    for row, (mapper, jsum, jmax) in zip(rows, FIGURE6_ANCHORS):
        if (row["mapper"], row["jsum"], row["jmax"]) != (mapper, jsum, jmax):
            run.failed += 1
            run.problem(
                f"figure6 anchor {mapper}: Jsum={row['jsum']} Jmax={row['jmax']}, "
                f"expected Jsum={jsum} Jmax={jmax}"
            )


# ----------------------------------------------------------------------
# paper_serial_cold
# ----------------------------------------------------------------------
class PaperSerialCold(Workload):
    """Cold serial engine: Figure 8 set + a stencil program + a graph."""

    scaled = True

    def setup(self, run: Run) -> None:
        def fresh_engine():
            EvaluationEngine(max_workers=1).close()

        run.setup_s = run.import_s + median_time(fresh_engine, SETUP_REPEATS)
        instances = paper_instances()
        run.rng("order").shuffle(instances)
        if run.smoke:
            instances = instances[:3]
        jobs = [
            (inst.label(), "paper", lambda inst=inst: paper_spec([inst]))
            for inst in instances
        ]
        jobs.append(("program", "paper", program_spec))
        jobs.append(("graph", "graph", lambda: graph_spec(run.seed)))
        run.rng("jobs").shuffle(jobs)
        self.jobs = []
        for slot, section, spec_fn in jobs:
            keys = cell_keys(spec_fn())
            self.jobs.append((slot, spec_fn, keys, section))

    def prepare(self, run: Run) -> None:
        if run.seed != DEFAULT_SEED:
            with EvaluationEngine(max_workers=1) as engine:
                rows = repro.run(graph_spec(run.seed), backend=engine).to_rows()
            run.reference.add("graph", rows, run.seed)
        with EvaluationEngine(max_workers=1) as engine:
            check_anchors(run, engine)
        self.jobs = [
            (slot, spec_fn, keys, run.expected(section, keys))
            for slot, spec_fn, keys, section in self.jobs
        ]

    def unit(self, run: Run, phase: Phase) -> None:
        """One cold pass: a fresh engine, every job once."""
        with EvaluationEngine(max_workers=1) as engine:
            for slot, spec_fn, keys, expected in self.jobs:
                run.timed_job(phase, slot, spec_fn, engine, keys, expected)
        run.rss.sample()


# ----------------------------------------------------------------------
# structured_process_cold
# ----------------------------------------------------------------------
class StructuredProcessCold(Workload):
    """Cold process pool: 144 instances x 3 families x 6 mappers."""

    scaled = True

    def __init__(self):
        self.backend = None
        self.pool_starts: list[float] = []

    def _start_pool(self, run: Run) -> None:
        """A fresh default ``ProcessBackend(2)``, warmed on tiny instances."""
        warm = SweepSpec(
            [
                InstanceSpec.from_nodes(2, 3, label="warm_a"),
                InstanceSpec.from_nodes(3, 2, label="warm_b"),
            ],
            stencils=["nearest_neighbor"],
            mappers=["blocked"],
        )
        start = time.perf_counter()
        self.backend = ProcessBackend(2)
        repro.run(warm, backend=self.backend)
        self.pool_starts.append(time.perf_counter() - start)

    def _stop_pool(self, run: Run) -> None:
        if self.backend is not None:
            run.rss.sample()
            self.backend.close()
            self.backend = None

    def setup(self, run: Run) -> None:
        instances = [InstanceSpec.coerce(i) for i in paper_instances()]
        if run.smoke:
            instances = instances[:4]
        # The seed orders the jobs, not the instances inside a job: the
        # instance order decides how shards balance across the two
        # workers, which would make the figures depend on the seed.
        self.jobs = []
        for family in STENCIL_FAMILIES:
            spec_fn = lambda f=family: structured_spec(instances, f)  # noqa: E731
            self.jobs.append((family, spec_fn, cell_keys(spec_fn())))
        run.rng("order").shuffle(self.jobs)
        setup_start = time.monotonic_ns()
        self._start_pool(run)
        run.setup_window = (setup_start, time.monotonic_ns())

    def prepare(self, run: Run) -> None:
        check_anchors(run, self.backend)
        self.jobs = [
            (slot, spec_fn, keys, run.expected("structured", keys))
            for slot, spec_fn, keys in self.jobs
        ]
        self._stop_pool(run)  # the anchors warmed it

    def unit(self, run: Run, phase: Phase) -> None:
        """One cold pass on a fresh pool (started outside the timing)."""
        self._start_pool(run)
        for slot, spec_fn, keys, expected in self.jobs:
            run.timed_job(phase, slot, spec_fn, self.backend, keys, expected)
        self._stop_pool(run)

    def after(self, run: Run) -> None:
        # Every pass starts a pool the way set-up does: the median of
        # all of them is the set-up figure.
        pool_start = statistics.median(self.pool_starts)
        run.setup_s = run.import_s + pool_start
        run.layer["backends.pool_start_s"] = pool_start

    def close(self, run: Run) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"service daemon listening on [^:\s]*:(\d+)")


class _Service(Workload):
    """A ``serve-jobs`` daemon plus one serial worker, launched through
    the benchmark's launcher with ``--reconnect-timeout 0``."""

    min_jobs = MIN_SERVICE_JOBS
    cache_store = False

    def _launch(self, run: Run, index: int) -> None:
        argv = ["serve-jobs", "--bind", "127.0.0.1:0"]
        if self.cache_store:
            store = run.rundir / f"store{index}"
            store.mkdir()
            argv += ["--cache-dir", str(store)]
        daemon = run.children.launch("daemon", argv)
        deadline = time.monotonic() + 60.0
        while not (match := _LISTENING.search(run.children.log_text("daemon"))):
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "serve-jobs did not start:\n" + run.children.log_text("daemon")
                )
            time.sleep(0.02)
        self.port = int(match.group(1))
        run.children.launch(
            "worker",
            [
                "work",
                "--connect",
                f"127.0.0.1:{self.port}",
                "--backend",
                "serial",
                "--connect-timeout",
                "30",
                "--reconnect-timeout",
                "0",
            ],
        )
        self.client = ServiceClient("127.0.0.1", self.port, connect_timeout=30.0)
        while self.client.status_full().get("pool", {}).get("workers", 0) < 1:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "the worker did not connect:\n" + run.children.log_text("worker")
                )
            time.sleep(0.02)

    def launch(self, run: Run) -> float:
        """Launch a daemon and worker a few times, keep the last pair;
        returns the median launch time."""
        samples = []
        for index in range(SETUP_REPEATS):
            if index:
                run.children.stop()
            start = time.perf_counter()
            self._launch(run, index)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def backend(self, label: str) -> ServiceBackend:
        return ServiceBackend(
            "127.0.0.1", self.port, label=label, connect_timeout=30.0
        )

    def after(self, run: Run) -> None:
        """Probes on the idle daemon, outside the timed phases."""
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            self.client.metrics()
            samples.append((time.perf_counter() - start) * 1e3)
        run.layer["service.rpc_ms"] = statistics.median(samples)
        run.rss.sample()


class ServiceSmallJobs(_Service):
    """Warm worker, no result store: every shard is dispatched."""

    def setup(self, run: Run) -> None:
        setup_start = time.monotonic_ns()
        launch_s = self.launch(run)
        self.pool = small_pool()
        start = time.perf_counter()
        self.warm_rows = repro.run(
            small_spec(self.pool), backend=self.backend("perfbench-warm")
        ).to_rows()
        run.setup_s = run.import_s + launch_s + time.perf_counter() - start
        run.setup_window = (setup_start, time.monotonic_ns())
        self.rng_jobs = run.rng("jobs")

    def prepare(self, run: Run) -> None:
        keys = cell_keys(small_spec(self.pool))
        run.check_rows(self.warm_rows, keys, run.expected("small", keys), "warm-up")
        check_anchors(run, self.backend("perfbench-anchors"))
        self.jobs_backend = self.backend("perfbench-jobs")

    def unit(self, run: Run, phase: Phase) -> None:
        """One block of jobs holding 1..6 instances, in seeded order."""
        slots = [f"size{size}.{BLOCK_SIZES[:i].count(size)}"
                 for i, size in enumerate(BLOCK_SIZES)]
        self.rng_jobs.shuffle(slots)
        for slot in slots:
            size = int(slot[4:].split(".")[0])
            instances = self.rng_jobs.sample(self.pool, size)
            keys = cell_keys(small_spec(instances))
            run.timed_job(
                phase,
                slot,
                lambda i=instances: small_spec(i),
                self.jobs_backend,
                keys,
                run.expected("small", keys),
            )


class ServiceStoreReplay(_Service):
    """The cold paper sweep replayed from the daemon's result store."""

    cache_store = True
    scaled = True

    def setup(self, run: Run) -> None:
        setup_start = time.monotonic_ns()
        launch_s = self.launch(run)
        # The same sweep for every seed: its latency depends on the byte
        # layout of the submission, and a seeded instance order moved
        # p50 by about 20% between seeds at the commit that added this.
        instances = paper_instances()[:6] if run.smoke else paper_instances()
        self.spec_fn = lambda: paper_spec(instances)
        start = time.perf_counter()
        self.populate_rows = repro.run(
            self.spec_fn(), backend=self.backend("perfbench-populate")
        ).to_rows()
        run.setup_s = run.import_s + launch_s + time.perf_counter() - start
        run.setup_window = (setup_start, time.monotonic_ns())

    def prepare(self, run: Run) -> None:
        self.keys = cell_keys(self.spec_fn())
        self.expected_digests = run.expected("paper", self.keys)
        run.check_rows(self.populate_rows, self.keys, self.expected_digests, "populate")
        check_anchors(run, self.backend("perfbench-anchors"))
        self.jobs_backend = self.backend("perfbench-replay")
        self.shards: dict[str, int] = {}
        self.unchecked = 0
        self.store_before = self.client.metrics().get("store", {})

    def unit(self, run: Run, phase: Phase) -> None:
        """One replay of the whole sweep."""
        run.timed_job(
            phase, "replay", self.spec_fn, self.jobs_backend, self.keys,
            self.expected_digests,
        )
        self.unchecked += 1
        if self.unchecked >= STATUS_EVERY:
            self._record_dispatch()

    def _record_dispatch(self) -> None:
        """Note the dispatched-shard count of every replay job so far.

        STATUS keeps a bounded history per client, so this runs (outside
        the timed jobs) more often than that history is long.
        """
        for job in self.client.status():
            if job.get("label") == "perfbench-replay":
                self.shards[job["job"]] = job.get("shards", 0)
        self.unchecked = 0

    def after(self, run: Run) -> None:
        """Every timed job must have been served with zero dispatch."""
        super().after(run)
        self._record_dispatch()
        timed = sum(phase.jobs for phase in run.phases)
        dispatched = [job for job, shards in self.shards.items() if shards]
        missing = max(timed - len(self.shards), 0)
        if dispatched or missing:
            run.failed += len(self.keys) * (len(dispatched) + missing)
            run.problem(
                f"replay: {len(dispatched)} job(s) dispatched shards and "
                f"{missing} job(s) were not seen in STATUS; the store should "
                "answer every cell"
            )
        store = self.client.metrics().get("store", {})
        hits = store.get("hits", 0) - self.store_before.get("hits", 0)
        looked = hits + sum(
            store.get(k, 0) - self.store_before.get(k, 0)
            for k in ("misses", "inflight_joins")
        )
        run.layer["service.store_hit_rate"] = hits / looked if looked else 0.0
        run.layer["service.shards_dispatched"] = (
            sum(self.shards.values()) / len(self.shards) if self.shards else 0.0
        )


WORKLOADS = {
    "paper_serial_cold": PaperSerialCold,
    "structured_process_cold": StructuredProcessCold,
    "service_small_jobs": ServiceSmallJobs,
    "service_store_replay": ServiceStoreReplay,
}
