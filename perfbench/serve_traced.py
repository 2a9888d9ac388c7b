"""Run ``repro serve`` with layer spans recorded, writing them at exit.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py SPANS.json PROGRAM.pl [serve options]

The wrappers of :data:`tracing.SERVER_POINTS` are installed before
``repro.cli.main(["serve", ...])`` runs; the spans are written to
``SPANS.json`` once the server has drained (SIGTERM or SIGINT).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import SERVER_POINTS, Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(SERVER_POINTS)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
