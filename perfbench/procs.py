"""Processes and scratch directories of one benchmark run.

Everything a run starts is tied to the run and checked at its end:

* every child is launched with the run's marker in its environment
  (``PERFBENCH_RUN=<id>``) and, through ``launch.py``, with
  ``PR_SET_PDEATHSIG`` so that even a killed benchmark leaves no
  orphan;
* :meth:`Children.stop` interrupts a child, waits a grace period and
  escalates to ``SIGKILL``;
* :func:`survivors` scans ``/proc`` for any process that carries the
  marker or is still a direct child; a survivor fails the run.

Linux only: the checks read ``/proc`` (psutil is not installed).
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

MARKER_ENV = "PERFBENCH_RUN"
PARENT_ENV = "PERFBENCH_PARENT"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

_PR_SET_PDEATHSIG = 1


def die_with_parent(expected_parent: int) -> None:
    """Ask the kernel to SIGKILL this process when its parent exits.

    Called first thing in every launched child.  The parent may already
    be gone by then (the signal is only armed from now on), hence the
    re-check of the parent pid afterwards.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != expected_parent:
        os._exit(1)


def _stat_fields(pid: int) -> list[bytes] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name: state, ppid, ...
    return text.rpartition(b")")[2].split()


def _environ(pid: int) -> list[bytes]:
    try:
        with open(f"/proc/{pid}/environ", "rb") as handle:
            return handle.read().split(b"\0")
    except OSError:
        return []


def survivors(marker: str) -> list[int]:
    """Live processes of this run other than the caller itself.

    A process belongs to the run when its environment carries the run
    marker or when it is still a direct child of the caller (forked
    pool workers inherit the caller's original environment block, so
    they are found through their parent pid).  Zombie children are
    reaped on the way and do not count.
    """
    me = os.getpid()
    tag = f"{MARKER_ENV}={marker}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        pid = int(entry)
        fields = _stat_fields(pid)
        if fields is None or len(fields) < 2:
            continue
        state, ppid = fields[0], int(fields[1])
        if state in (b"Z", b"X"):
            if ppid == me:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            continue
        if ppid == me or tag in _environ(pid):
            found.append(pid)
    return found


def kill_survivors(marker: str) -> list[int]:
    """SIGKILL and reap every survivor; returns the pids found."""
    found = survivors(marker)
    for pid in found:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while found and survivors(marker) and time.monotonic() < deadline:
        time.sleep(0.05)
    return found


def peak_rss_bytes(pid: int) -> int:
    """``VmHWM`` of a live process (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssMeter:
    """Peak RSS of the run: the caller's peak plus the largest sum of
    its children's peaks seen at any sampling point.

    Children come and go (a fresh process pool per pass), so their
    peaks are summed per sampling point, not over the whole run.
    """

    def __init__(self, marker: str):
        self._marker = marker
        self._children_peak = 0

    def sample(self) -> None:
        total = sum(peak_rss_bytes(pid) for pid in survivors(self._marker))
        self._children_peak = max(self._children_peak, total)

    def total_mb(self) -> float:
        return (peak_rss_bytes(os.getpid()) + self._children_peak) / 2**20


class Children:
    """The processes a run launches through ``launch.py``."""

    def __init__(self, marker: str, rundir: Path, trace_dir: Path | None):
        self.marker = marker
        self.rundir = rundir
        self.trace_dir = trace_dir
        self._procs: list[tuple[str, subprocess.Popen]] = []

    def launch(self, name: str, argv: list[str]) -> subprocess.Popen:
        """Start ``repro.experiments <argv>`` through the launcher.

        Output goes to ``<rundir>/<name>.log``; the caller reads it to
        find the daemon's port.
        """
        env = dict(os.environ)
        env[MARKER_ENV] = self.marker
        env[PARENT_ENV] = str(os.getpid())
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop(TRACE_DIR_ENV, None)
        if self.trace_dir is not None:
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        env["PYTHONUNBUFFERED"] = "1"
        log = open(self.rundir / f"{name}.log", "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), *argv],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=str(ROOT),
            )
        finally:
            log.close()
        self._procs.append((name, proc))
        return proc

    def log_text(self, name: str) -> str:
        try:
            return (self.rundir / f"{name}.log").read_text(errors="replace")
        except OSError:
            return ""

    def signal_all(self, sig: int) -> None:
        for _, proc in self._procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(sig)
                except ProcessLookupError:
                    pass

    def stop(self, grace: float = 5.0) -> None:
        """Interrupt every child, then kill any still alive after *grace*.

        The daemon goes first: ``serve-jobs`` only closes the daemon,
        which sends its workers ``SHUTDOWN``, on its KeyboardInterrupt
        path, hence SIGINT.
        """
        procs = sorted(self._procs, key=lambda item: item[0] != "daemon")
        for _, proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=grace)
        self._procs.clear()


def make_rundir(marker: str) -> Path:
    """A fresh scratch directory for this run inside the checkout.

    Directories of earlier runs whose process is gone (a run killed
    before its own cleanup) are removed first.
    """
    SCRATCH.mkdir(exist_ok=True)
    for stale in SCRATCH.glob("run-*"):
        try:
            pid = int(stale.name.split("-")[1])
        except (IndexError, ValueError):
            continue
        if pid != os.getpid() and _stat_fields(pid) is None:
            shutil.rmtree(stale, ignore_errors=True)
    rundir = SCRATCH / f"run-{os.getpid()}-{marker}"
    rundir.mkdir()
    return rundir


def remove_rundir(rundir: Path) -> bool:
    """Delete the run's scratch directory; ``True`` when it is gone."""
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only when no other run is using it
    except OSError:
        pass
    return not rundir.exists()
