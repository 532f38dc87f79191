#!/usr/bin/env python
"""Append perfbench A/B records to ``BENCH_perfbench.json``.

Each ``--pair PARENT CHANGE`` names two saved stdout captures of
``perfbench/run.py`` run back to back, the parent commit's first.
Their last run record (the ``perfbench-record {...}`` line, which names
the workload and the seed) is followed by the metric JSON line.  Pairs
are grouped by (workload, seed), and one record per group is
appended::

    python3 benchmarks/record_perfbench.py --commit C --parent P \\
        --pair runs/p1.txt runs/c1.txt --pair runs/p2.txt runs/c2.txt ...

A record holds the commit and its parent, the workload, the seed, the
number of pairs and, per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles (``statistics.quantiles``, inclusive
method), the number of pairs the change won (strictly better in the
metric's direction) and every pair's two values in run order.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_PREFIX = "perfbench-record "


def read_run(path: Path) -> tuple[dict, dict]:
    """``(record, metrics)`` of a capture: its last run record
    (``perfbench-record {...}``) and the metric JSON line after it."""
    lines = Path(path).read_text().splitlines()
    found = [index for index, line in enumerate(lines[:-1]) if line.startswith(RECORD_PREFIX)]
    if not found:
        raise ValueError(f"{path}: no perfbench record and metric lines")
    index = found[-1]
    return json.loads(lines[index][len(RECORD_PREFIX):]), json.loads(lines[index + 1])


def summary(values: list[float]) -> dict:
    """Median and quartiles of one side's values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def pairs_won(pairs: list[tuple[float, float]], better: str) -> int:
    """Pairs in which the change is strictly better than the parent."""
    if better == "lower":
        return sum(change < parent for parent, change in pairs)
    return sum(change > parent for parent, change in pairs)


def build_record(
    commit: str, parent: str, runs: list[tuple[tuple[dict, dict], tuple[dict, dict]]],
    metric_specs: list[dict],
) -> dict:
    """One record from the (parent, change) runs of one workload and seed."""
    (first_record, _), _ = runs[0]
    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        pairs = [
            (float(parent_metrics["metrics"][name]["value"]),
             float(change_metrics["metrics"][name]["value"]))
            for (_, parent_metrics), (_, change_metrics) in runs
        ]
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": summary([parent_value for parent_value, _ in pairs]),
            "change": summary([change_value for _, change_value in pairs]),
            "won": pairs_won(pairs, spec["better"]),
            "runs": [list(pair) for pair in pairs],
        }
    return {
        "workload": first_record["workload"],
        "commit": commit,
        "parent": parent,
        "seed": first_record["env"]["seed"],
        "pairs": len(runs),
        "failed": {
            "parent": sum(parent_metrics["failed"] for (_, parent_metrics), _ in runs),
            "change": sum(change_metrics["failed"] for _, (_, change_metrics) in runs),
        },
        "metrics": metrics,
    }


def group_runs(pair_paths: list[tuple[str, str]]) -> dict[tuple[str, int], list]:
    """Pairs of runs keyed by (workload, seed), in the order given."""
    groups: dict[tuple[str, int], list] = {}
    for parent_path, change_path in pair_paths:
        parent_run, change_run = read_run(parent_path), read_run(change_path)
        keys = {(run[0]["workload"], run[0]["env"]["seed"]) for run in (parent_run, change_run)}
        if len(keys) != 1:
            raise ValueError(f"{parent_path} and {change_path} differ in workload or seed")
        groups.setdefault(keys.pop(), []).append((parent_run, change_run))
    return groups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the measured change's commit")
    parser.add_argument("--parent", required=True, help="its parent commit")
    parser.add_argument("--pair", nargs=2, action="append", required=True,
                        metavar=("PARENT_RUN", "CHANGE_RUN"))
    parser.add_argument("--output", default=str(ROOT / "BENCH_perfbench.json"))
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    metric_specs = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    records = [
        build_record(args.commit, args.parent, runs, metric_specs)
        for runs in group_runs(args.pair).values()
    ]
    output = Path(args.output)
    history = json.loads(output.read_text()) if output.exists() else []
    history.extend(records)
    output.write_text(json.dumps(history, indent=2) + "\n")
    for record in records:
        won = ", ".join(f"{name} {metric['won']}/{record['pairs']}"
                        for name, metric in record["metrics"].items())
        print(f"{record['workload']} seed {record['seed']}: {won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
