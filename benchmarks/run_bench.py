#!/usr/bin/env python
"""Run the simulation benchmark at the pinned scale and append the
timing record to BENCH_simulation.json (see ``repro.bench``).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--scale 1.0] [--seed 777]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import main

if __name__ == "__main__":
    raise SystemExit(main())
