#!/usr/bin/env python
"""Run ``cloudwatching bench`` from a source checkout: every argument is
forwarded to the CLI subcommand, which times the simulate→analyze path
at the pinned scale and appends the record to BENCH_simulation.json
(see ``repro.bench``).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--scale 1.0] [--seed 777]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
