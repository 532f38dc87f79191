#!/usr/bin/env python
"""CI timing smoke: no experiment may dwarf the simulation stage.

The contingency-engine refactor holds a standing guarantee: every
experiment driver's analysis runs in less time than the simulation stage
that produced its events (at the pinned full-scale bench).  CI cannot
afford full scale, so this checker runs the bench at a reduced scale and
enforces a *generous* multiple of the simulation wall clock instead —
loose enough to absorb shared-runner noise, tight enough that an O(n)
regression back to per-pair event scans trips it.

Budget per experiment::

    budget = max(multiple × simulation_seconds, floor_seconds)

X3 is excluded by default: a cold X3 orchestrates two full off-year
simulations, which is a build, not an analysis — its timing is covered
by the ``x3_cache`` field of the bench record instead.  X5 is excluded
for the same reason: its self-check re-runs the base-year simulation
with enforcement on, so it costs ~1× simulation by construction; its
detection pass is timed by perfbench ``sharded`` as ``respond_s``.

Usage::

    PYTHONPATH=src python benchmarks/check_experiment_budget.py \
        [--scale 0.25] [--telescope 8] [--multiple 5.0] [--floor 2.0]

Exits non-zero listing every experiment over budget.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import run_bench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_experiment_budget",
        description="Fail if any experiment exceeds its share of simulation time.",
    )
    parser.add_argument("--scale", type=float, default=0.25,
                        help="population scale for the smoke run (default 0.25)")
    parser.add_argument("--telescope", type=int, default=8,
                        help="telescope size in /24s (default 8)")
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    parser.add_argument("--multiple", type=float, default=5.0,
                        help="budget as a multiple of simulation seconds (default 5.0)")
    parser.add_argument("--floor", type=float, default=2.0,
                        help="minimum budget in seconds, absorbing timer noise "
                             "on tiny runs (default 2.0)")
    parser.add_argument("--experiments", nargs="*", default=None, metavar="ID",
                        help="experiment ids to check (default: all for the "
                             "year except X3/X5)")
    args = parser.parse_args(argv)

    experiments = args.experiments
    if experiments is None:
        from repro.cli import EXPERIMENT_YEARS
        from repro.experiments import ALL_EXPERIMENTS

        experiments = [
            experiment_id
            for experiment_id in ALL_EXPERIMENTS
            if EXPERIMENT_YEARS.get(experiment_id, args.year) == args.year
            and experiment_id not in ("X3", "X5")
        ]

    with tempfile.NamedTemporaryFile(suffix=".json") as artifact:
        record = run_bench(
            scale=args.scale,
            telescope_slash24s=args.telescope,
            seed=args.seed,
            year=args.year,
            experiments=experiments,
            artifact=artifact.name,
        )

    simulation = record["stages"]["simulation"]
    budget = max(args.multiple * simulation, args.floor)
    print(f"\nsimulation {simulation:.2f}s -> per-experiment budget {budget:.2f}s "
          f"(max of {args.multiple:g}x simulation and {args.floor:g}s floor)")

    over = {
        name: seconds
        for name, seconds in record["experiments"].items()
        if seconds > budget
    }
    for name, seconds in sorted(record["experiments"].items(), key=lambda i: -i[1]):
        marker = "OVER" if name in over else "ok"
        print(f"  {name:<4} {seconds:7.2f}s  {marker}")
    if over:
        print(f"\nFAIL: {len(over)} experiment(s) over budget: "
              + ", ".join(sorted(over)))
        return 1
    print("\nPASS: all experiments within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
