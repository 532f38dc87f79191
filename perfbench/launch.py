"""Start ``cloudwatching`` with the benchmark's span wrappers installed.

``python3 perfbench/launch.py serve --run-dir DIR ...`` runs
``repro.cli.main`` with the given arguments.  When the environment
variable ``PERFBENCH_TRACE`` names a file, the wrappers of ``tracer.py``
are installed first and the spans (plus each query server's counters)
are written to that file when the command returns, e.g. after SIGINT.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    from repro.cli import main as cli_main

    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracer import Tracer, install

        tracer = install(Tracer())
    try:
        return cli_main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    raise SystemExit(main())
