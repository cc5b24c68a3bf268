"""The benchmark's own tests (smoke mode: seconds per workload).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test
collection: every case starts real daemons, workers and process pools.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, timeout: float = 170.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_processes() -> list[int]:
    """Pids of any live process started by a benchmark run."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if b"PERFBENCH_RUN=" in handle.read():
                    found.append(int(entry))
        except OSError:
            pass
    return found


def assert_clean() -> None:
    assert run_processes() == []
    scratch = ROOT / ".perfbench"
    assert not scratch.exists() or not list(scratch.iterdir())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert_clean()


def test_host_speed_is_the_reference_over_the_median_loop_time():
    from perfbench import clock

    ref = clock.REFERENCE_MS
    assert clock.speed([ref, ref, ref]) == 1.0
    # One sample slowed by a burst of other load does not move it.
    assert clock.speed([2 * ref, 2 * ref, 50 * ref]) == 0.5
    assert 0.0 < clock.sample_ms() < 100 * ref


def test_planted_mismatch_counts_as_failed():
    proc = bench("--workload", "paper_serial_cold", "--seed", "0", "--seconds",
                 "1", "--trace", "0", "--smoke", "--plant-mismatch")
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] > 0
    assert "differs from the reference" in proc.stderr
    assert_clean()


def test_sigterm_mid_job_leaves_nothing_behind():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "service_small_jobs",
         "--seed", "3", "--seconds", "60", "--trace", "1"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # Wait for the daemon and worker, then for jobs to be running.
        deadline = time.monotonic() + 60
        while len(run_processes()) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert len(run_processes()) >= 2
        time.sleep(6.0)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode != 0
    assert out.strip() == ""
    assert "interrupted" in err
    assert_clean()


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper_serial_cold", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
