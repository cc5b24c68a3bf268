"""Host speed calibration: times scaled to a reference speed.

Shared virtual machines change speed with their neighbours' load:
identical serial work can run about twice as fast in some stretches as
in others, and such stretches last from a fraction of a second to
several minutes.  A run that happens to fall into one would read that
much faster without any change to the program.

Every run therefore times a fixed calibration loop before each job.
The loop mixes what the mapping code does (Python integer arithmetic,
NumPy scalar reads and dict stores, then a vectorised sort of half a
megabyte), so it speeds up and slows down with the host about as the
program does; a loop of Python alone sped up more than the program,
whose NumPy work gains less from a faster host.  It does not call into
``repro``, so a change to the program cannot move it.  A phase's
*speed* is ``REFERENCE_MS`` over its median loop time; a time
multiplied by the speed is the time the work would have taken on a
host where the loop takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Python iterations of the calibration loop.
ITERATIONS = 2500
#: The loop's median time on the baseline host in its usual state
#: (2-vCPU Xeon KVM guest, 2.1 GHz, Python 3.11, NumPy 2).
REFERENCE_MS = 1.8

_TABLE = np.arange(64)
#: 64 Ki integers (512 KiB), sorted afresh by every run of the loop.
_KEYS = np.random.default_rng(0).integers(0, 1 << 20, size=1 << 16)


def _loop() -> int:
    seen = {}
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc * 31 + int(_TABLE[i & 63])) % 1000003
        seen[acc & 255] = i
    return acc + len(seen) + int(np.sort(_KEYS)[acc & 1023])


def sample_ms() -> float:
    """One timed run of the calibration loop, in milliseconds."""
    start = time.perf_counter()
    _loop()
    return (time.perf_counter() - start) * 1e3


def speed(samples_ms: list[float]) -> float:
    """Host speed relative to the reference: above 1 is faster.

    The median keeps a sample that a burst of other load slowed, or a
    short fast stretch sped up, from moving the figure.
    """
    return REFERENCE_MS / statistics.median(samples_ms)
