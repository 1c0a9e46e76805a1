"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``PERFBENCH_TRACE_OUT=spans.json python3 perfbench/traced_serve.py
serve [serve options]`` (with ``src`` on ``PYTHONPATH``).  The command
line is the same as ``python -m repro serve``, so a traced server differs
from an untraced one only by tracing.  On SIGINT the server shuts down
cleanly and the spans are written to ``$PERFBENCH_TRACE_OUT``.
"""

import os
import sys

from tracing import Tracer, install


def main() -> int:
    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    try:
        return repro_main(sys.argv[1:])
    finally:
        tracer.enabled = False
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
