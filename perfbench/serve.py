"""Traced daemon entry point: wrap the layers, then run ``pathalias``.

Usage::

    python3 perfbench/serve.py --trace-out SPANS --role ROLE serve ...

Everything after ``--role ROLE`` is passed to the ``pathalias`` CLI
unchanged.  On SIGINT or SIGTERM the daemon stops serving and this
process writes its spans to ``SPANS`` before exiting.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import use_program  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--role", required=True, choices=("front", "backend"))
    args, rest = parser.parse_known_args()
    use_program()
    from repro.cli import main as pathalias

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    tracer = Tracer(args.role)
    tracer.install()
    try:
        return pathalias(rest)
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
