"""Start ``python -m repro.experiments <args>`` as a child of a benchmark run.

The benchmark launches the ``serve-jobs`` daemon and its worker through
this file rather than ``-m repro.experiments`` so that, before the
public CLI entry point runs, the child

* arms ``PR_SET_PDEATHSIG`` (it dies with the benchmark, whatever
  kills the benchmark), and
* in a traced run, installs the same span wrappers as the benchmark
  process and writes its spans when it exits.

Usage (the benchmark sets the environment): ``python launch.py ARGS...``
with the same arguments as ``python -m repro.experiments``.
"""

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.procs import PARENT_ENV, TRACE_DIR_ENV, die_with_parent  # noqa: E402


def main() -> int:
    die_with_parent(int(os.environ[PARENT_ENV]))
    tracer = None
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        from perfbench import tracing

        tracer = tracing.install(trace_dir, role=sys.argv[1])
        # The benchmark switches tracing on and off around its phases.
        signal.signal(signal.SIGUSR1, lambda *_: tracer.set_enabled(True))
        signal.signal(signal.SIGUSR2, lambda *_: tracer.set_enabled(False))
    from repro.experiments.__main__ import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
