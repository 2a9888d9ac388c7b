"""Spin at idle priority on one CPU, timing the pace kernel as it goes.

Usage (started by serve_phase.py)::

    python3 perfbench/pacer.py CPU PARENT_PID

Pinned to ``CPU`` under ``SCHED_IDLE``, it runs only when nothing else
wants that CPU, so the server and the load generator preempt it at once.
That keeps the CPU from halting between requests, and it measures the
host's pace on that CPU while the requests are served: each run of
:func:`util.pace_kernel` prints one line, ``<perf_counter at its end>
<its CPU seconds>``. Counting CPU time leaves out the stretches the
program under test had the CPU. It exits when killed or when its parent
is gone.
"""

import os
import sys
from time import perf_counter, thread_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from util import pace_kernel  # noqa: E402


def main(argv) -> int:
    cpu, parent = int(argv[0]), int(argv[1])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    out = sys.stdout
    while os.getppid() == parent:
        started = thread_time()
        pace_kernel()
        out.write(f"{perf_counter()} {thread_time() - started}\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
