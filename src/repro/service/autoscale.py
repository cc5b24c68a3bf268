"""Elastic worker-pool sizing for the standing sweep service.

An :class:`Autoscaler` watches the coordinator's load gauges
(:meth:`~repro.engine.cluster.coordinator.Coordinator.load_snapshot` —
the same numbers STATUS exposes in its ``pool`` section) and keeps the
worker pool between ``min_workers`` and ``max_workers``:

* **scale up** — whenever busy workers plus the backlog call for more
  capacity than is provisioned (connected, non-draining workers plus
  spawns still starting), it asks its *spawner* for the difference,
  immediately.  Pending spawns are tracked so a burst of queue depth
  does not double-spawn while workers are still booting; a spawn that
  has not produced a connected worker within ``spawn_timeout`` seconds
  is written off and may be retried.  Depth is not the only trigger:
  when the oldest queued shard has waited longer than
  ``queue_age_threshold`` seconds, one extra worker is provisioned per
  tick even if the depth formula is satisfied — latency, not just
  backlog, drives the pool up.
* **spawn backoff** — when spawns keep failing (a launcher that times
  out without connecting, or a worker that connects and dies before
  completing a single shard — the coordinator counts those as
  ``worker_early_deaths``), respawns are rate-limited with capped
  exponential backoff (``backoff_base * 2^(failures-1)``, capped at
  ``backoff_max``) instead of retrying a crash-looping spawn command
  every tick.  The first completed shard resets the backoff.
* **scale down** — only after the queue and every worker have been
  idle for ``idle_grace`` seconds, and then by *draining*: excess
  workers are marked via :meth:`~repro.engine.cluster.coordinator.
  Coordinator.drain_workers`, finish anything they hold, receive
  ``SHUTDOWN`` in place of their next shard, and exit cleanly.  Work
  in flight is never killed.

Spawners are pluggable.  :class:`LocalSpawner` launches ``python -m
repro.experiments work`` subprocesses on the daemon's own host — the
zero-configuration case.  :class:`ExecSpawner` runs an arbitrary
command template per worker (``{host}``/``{port}``/``{address}``
placeholders), the seam for remote hosts: point it at ``ssh``, a batch
scheduler submission, or a container runtime, and the spawned process
is expected to (eventually) connect a worker back to the coordinator::

    ExecSpawner("ssh worker-pool repro-worker --connect {address}")

Both spawners only manage the processes they launched; workers that
attach on their own (a manually started ``work`` verb) are counted by
the coordinator like any other and simply reduce how many the
autoscaler asks for.
"""

from __future__ import annotations

import asyncio
import math
import os
import shlex
import subprocess
import sys
import time

from ..engine.cluster.protocol import SECRET_ENV

__all__ = ["Autoscaler", "LocalSpawner", "ExecSpawner"]


class _ProcSpawner:
    """Shared subprocess bookkeeping of the concrete spawners."""

    def __init__(self):
        self._procs: list[subprocess.Popen] = []

    def _build(self, host: str, port: int) -> tuple[list[str], dict | None]:
        raise NotImplementedError

    def spawn(self, host: str, port: int) -> None:
        """Launch one worker towards ``host:port`` (non-blocking)."""
        args, env = self._build(host, port)
        self._procs.append(
            subprocess.Popen(
                args,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )

    def reap(self) -> int:
        """Forget exited launcher processes; how many are still alive."""
        self._procs = [p for p in self._procs if p.poll() is None]
        return len(self._procs)

    def close(self, grace: float = 5.0) -> None:
        """Wait briefly for launched processes, then terminate leftovers.

        Called after the coordinator's own shutdown/drain told every
        worker to exit; the terminate only bites processes that ignored
        it (or launchers, like an ``ssh`` hop, with nothing to read).
        """
        for proc in self._procs:
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
            grace = 0.2  # the rest shared the first process's grace
        self._procs.clear()


class LocalSpawner(_ProcSpawner):
    """Spawn ``work`` subprocesses on the daemon's host.

    Parameters
    ----------
    backend_spec:
        The spawned workers' local execution backend
        (``resolve_backend`` syntax), e.g. ``"process:4"`` for
        multi-core hosts; default serial.
    secret:
        Shared cluster secret, passed via the ``REPRO_CLUSTER_SECRET``
        environment variable (never argv — process listings are
        world-readable).
    tls_ca:
        Trust root the workers verify the daemon's TLS certificate
        against (for a self-signed daemon, the certificate itself).
    connect_host:
        Address workers dial; defaults to loopback, which is where
        local subprocesses should connect regardless of the bind host.
    python:
        Interpreter to launch (defaults to the daemon's own).
    """

    def __init__(
        self,
        *,
        backend_spec: str | None = None,
        secret: str | None = None,
        tls_ca: str | None = None,
        connect_host: str = "127.0.0.1",
        python: str | None = None,
    ):
        super().__init__()
        self.backend_spec = backend_spec
        self.secret = secret
        self.tls_ca = tls_ca
        self.connect_host = connect_host or "127.0.0.1"
        self.python = python or sys.executable

    def _build(self, host: str, port: int) -> tuple[list[str], dict | None]:
        args = [
            self.python,
            "-m",
            "repro.experiments",
            "work",
            "--connect",
            f"{self.connect_host}:{port}",
            "--connect-timeout",
            "30",
        ]
        if self.backend_spec:
            args += ["--backend", self.backend_spec]
        if self.tls_ca:
            args += ["--tls-ca", self.tls_ca]
        env = dict(os.environ)
        if self.secret:
            env[SECRET_ENV] = self.secret
        return args, env

    def __repr__(self) -> str:
        return f"LocalSpawner(backend={self.backend_spec or 'serial'!r})"


class ExecSpawner(_ProcSpawner):
    """Spawn workers through a user command template (remote hosts).

    The template is split with :func:`shlex.split` after substituting
    ``{host}``, ``{port}`` and ``{address}`` (``host:port``) — no
    shell is involved.  The command is expected to get a worker
    connected to the coordinator; which host it lands on, and how, is
    entirely the template's business (``ssh``, ``srun``, ``docker``,
    ...).  The launcher process itself is all this side can manage:
    scale-down still drains through the coordinator, and
    :meth:`close` only terminates launchers that outlive the drain.
    """

    def __init__(self, template: str):
        if not template or not template.strip():
            raise ValueError("spawn command template must not be empty")
        super().__init__()
        self.template = template

    def _build(self, host: str, port: int) -> tuple[list[str], dict | None]:
        command = self.template.format(
            host=host or "127.0.0.1",
            port=port,
            address=f"{host or '127.0.0.1'}:{port}",
        )
        return shlex.split(command), None

    def __repr__(self) -> str:
        return f"ExecSpawner({self.template!r})"


class Autoscaler:
    """Size a coordinator's worker pool to its load.

    Runs as one asyncio task on the coordinator's loop, ticking every
    *interval* seconds (see the module docstring for the policy).

    Parameters
    ----------
    coordinator:
        The coordinator to watch and drain.
    spawner:
        Where new workers come from (:class:`LocalSpawner` /
        :class:`ExecSpawner` or anything with their ``spawn`` /
        ``reap`` / ``close`` shape).
    min_workers, max_workers:
        Pool bounds.  ``min_workers`` are kept alive even when idle
        (spawned on the first tick); ``max_workers`` caps any backlog.
    interval:
        Seconds between control-loop ticks.
    idle_grace:
        Seconds the pool must be fully idle (empty queue, nothing in
        flight) before excess workers above ``min_workers`` drain.
    backlog_per_worker:
        Queued shards one worker is expected to absorb; demand is
        ``busy + ceil(queued / backlog_per_worker)``.
    spawn_timeout:
        Seconds a spawn may take to produce a connected worker before
        it is written off (a crashed launcher must not permanently
        occupy a pool slot).
    queue_age_threshold:
        Seconds the oldest queued shard may wait before one extra
        worker is provisioned per tick regardless of the depth
        formula; ``0`` disables the latency trigger.
    backoff_base, backoff_max:
        Capped exponential respawn backoff after failed spawns: the
        n-th consecutive failure blocks new spawns for
        ``min(backoff_max, backoff_base * 2**(n-1))`` seconds.  A
        completed shard anywhere in the pool resets the count.
    """

    def __init__(
        self,
        coordinator,
        spawner,
        *,
        min_workers: int = 0,
        max_workers: int = 4,
        interval: float = 0.5,
        idle_grace: float = 5.0,
        backlog_per_worker: int = 1,
        spawn_timeout: float = 30.0,
        queue_age_threshold: float = 10.0,
        backoff_base: float = 2.0,
        backoff_max: float = 60.0,
    ):
        if min_workers < 0:
            raise ValueError(f"min_workers must be >= 0, got {min_workers}")
        if max_workers < max(1, min_workers):
            raise ValueError(
                f"max_workers must be >= max(1, min_workers), got "
                f"{max_workers} with min_workers={min_workers}"
            )
        if interval <= 0 or idle_grace < 0 or spawn_timeout <= 0:
            raise ValueError(
                "interval/spawn_timeout must be positive and idle_grace >= 0"
            )
        if backlog_per_worker < 1:
            raise ValueError(
                f"backlog_per_worker must be >= 1, got {backlog_per_worker}"
            )
        if queue_age_threshold < 0:
            raise ValueError(
                f"queue_age_threshold must be >= 0, got {queue_age_threshold}"
            )
        if backoff_base <= 0 or backoff_max < backoff_base:
            raise ValueError(
                "backoff_base must be positive and backoff_max >= "
                f"backoff_base, got {backoff_base}/{backoff_max}"
            )
        self.coordinator = coordinator
        self.spawner = spawner
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.interval = float(interval)
        self.idle_grace = float(idle_grace)
        self.backlog_per_worker = int(backlog_per_worker)
        self.spawn_timeout = float(spawn_timeout)
        self.queue_age_threshold = float(queue_age_threshold)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self._pending: list[float] = []  # loop timestamps of unacked spawns
        self._prev_active = 0
        self._idle_since: float | None = None
        self._spawned_total = 0
        self._drained_total = 0
        self._spawn_failures = 0  # consecutive, since the last good shard
        self._backoff_until = 0.0
        self._prev_early_deaths = 0
        self._prev_completed = 0
        self._tick_errors = 0
        self._last_tick_error: str | None = None
        self._task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle (coordinator event loop)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the control loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.create_task(self._run())

    async def aclose(self) -> None:
        """Stop the control loop; launched processes are not touched
        here (the coordinator's shutdown tells workers to exit; call
        ``spawner.close()`` afterwards for stragglers)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        # A failed tick (e.g. a spawn command that cannot start) must
        # not kill the daemon: it is counted, and the next tick re-reads.
        while True:
            try:
                await self._tick()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - the loop must keep running
                self._tick_errors += 1
                self._last_tick_error = f"{type(exc).__name__}: {exc}"
            await asyncio.sleep(self.interval)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _spawn_one(self, now: float) -> None:
        host, port = self.coordinator.address
        self.spawner.spawn(host, port)
        self._pending.append(now)
        self._spawned_total += 1

    async def _tick(self) -> None:
        now = asyncio.get_running_loop().time()
        snap = self.coordinator.load_snapshot()
        active = snap["workers"] - snap["draining"]
        # Newly connected workers settle the oldest pending spawns;
        # what remains past the timeout is written off as failed.
        for _ in range(max(0, active - self._prev_active)):
            if self._pending:
                self._pending.pop(0)
        self._prev_active = active
        kept = [t for t in self._pending if now - t < self.spawn_timeout]
        expired = len(self._pending) - len(kept)
        self._pending = kept
        self.spawner.reap()

        # Spawn-failure bookkeeping: a written-off spawn or a worker
        # that died before completing a shard both count; a completed
        # shard anywhere proves the spawn path works and resets it.
        early_deaths = snap.get("worker_early_deaths", 0)
        completed = snap.get("completed_shards", 0)
        failures = expired + max(0, early_deaths - self._prev_early_deaths)
        self._prev_early_deaths = early_deaths
        if completed > self._prev_completed:
            self._prev_completed = completed
            self._spawn_failures = 0
            self._backoff_until = 0.0
        elif failures:
            self._spawn_failures += failures
            delay = min(
                self.backoff_max,
                self.backoff_base * 2.0 ** (self._spawn_failures - 1),
            )
            self._backoff_until = now + delay

        queued = snap["queued_shards"]
        inflight = snap["inflight_shards"]
        demand = snap["busy"] + math.ceil(queued / self.backlog_per_worker)
        target = min(self.max_workers, max(self.min_workers, demand))
        provisioned = active + len(self._pending)
        # Latency trigger: a shard stuck in the queue past the age
        # threshold asks for one extra worker per tick even when the
        # depth formula says the pool is big enough.
        if (
            self.queue_age_threshold
            and queued
            and snap.get("oldest_queued_age", 0.0) >= self.queue_age_threshold
        ):
            target = min(self.max_workers, max(target, provisioned + 1))
        if provisioned < target:
            if now < self._backoff_until:
                # Crash-looping spawns: hold off instead of burning a
                # respawn every tick.  Demand is re-read next tick.
                self._idle_since = None
                return
            for _ in range(target - provisioned):
                self._spawn_one(now)
            self._idle_since = None
            return
        if queued == 0 and inflight == 0 and active > self.min_workers:
            if self._idle_since is None:
                self._idle_since = now
            elif now - self._idle_since >= self.idle_grace:
                drained = await self.coordinator.drain_workers(
                    active - self.min_workers
                )
                self._drained_total += drained
                # Restart the grace clock: drained workers take a
                # moment to disconnect, and load may return meanwhile.
                self._idle_since = now
        else:
            self._idle_since = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters folded into the STATUS ``pool`` section."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            # Off-loop introspection: the default loop clock is
            # monotonic-based, so this stays comparable.
            now = time.monotonic()
        return {
            "autoscale": True,
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "spawned_total": self._spawned_total,
            "drained_total": self._drained_total,
            "pending_spawns": len(self._pending),
            "spawn_failures": self._spawn_failures,
            "spawn_backoff_remaining": max(0.0, self._backoff_until - now),
            "queue_age_threshold": self.queue_age_threshold,
            "tick_errors": self._tick_errors,
            "last_tick_error": self._last_tick_error,
        }

    def __repr__(self) -> str:
        return (
            f"Autoscaler({self.min_workers}..{self.max_workers} via "
            f"{self.spawner!r})"
        )
