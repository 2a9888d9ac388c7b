"""The repository's end-to-end benchmark: one command, two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_queries --seed 1 --seconds 15 --trace 0

``--workload`` is ``paper_queries`` or ``serve_mixed``;
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perfbench/README.md). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it gives the host facts, among them the
measured pace that scaled the timed metrics. The exit code is 0
when every check passed, 1 when one failed and 2 when the program's
sources are missing.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("paper_queries", "serve_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"error: the program's sources are missing ({SOURCES}/repro)", file=sys.stderr)
        return 2
    # Let ``finally`` blocks stop the server subprocess on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, SOURCES)
    sys.path.insert(0, HERE)
    from session import run_workload
    from util import host_facts

    result, pace_s = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("host " + json.dumps(host_facts(pace_s)), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
