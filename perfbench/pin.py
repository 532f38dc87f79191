"""Pin per-seed output values into ``perfbench/golden.json``.

    python3 perfbench/pin.py --seeds 1-10
    python3 perfbench/pin.py --seeds 3 --tiny --golden FILE

For each seed this runs one ``reproduce`` pass and one ``sharded``
collect/watch/respond pass (no serving), and records the sha256 of every
rendered experiment output, the event total and the incident audit-log
digest, keyed by workload/year/scale/telescope.  Later runs of a pinned
seed must reproduce them exactly; ``live`` is checked against the
``sharded`` event total.  Pin only from a commit whose outputs are right.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def pin_one(workload: str, seed: int, tiny: bool) -> tuple[str, dict]:
    argv = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    bench = bench_run.Bench(bench_run.parse_args(argv), bench_run.load_design(),
                            {"pinned": {}})
    (bench.work / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        if workload == "reproduce":
            _setup, result = bench.run_child(
                bench.child_spec("reproduce", experiments=bench.config["experiments"]), "pin")
            if result["sim_events"] != result["dataset_rows"]:
                raise SystemExit(f"seed {seed}: simulated rows != dataset rows; not pinning")
            values = result["digests"]
        else:
            _setup, result = bench.run_child(bench_run.sharded_spec(bench), "pin")
            collect = result["collect"]
            if collect["coverage"] != 1.0 or collect["merged_rows"] != collect["run_json_events"]:
                raise SystemExit(f"seed {seed}: incomplete sharded run; not pinning")
            values = {"events": collect["run_json_events"],
                      "audit_digest": result["respond"]["audit_digest"]}
    finally:
        bench.cleanup()
    return bench_run.golden_key(workload, bench.config), values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Pin per-seed output values.")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--tiny", action="store_true", help="pin the self-test scale")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    args = parser.parse_args(argv)
    path = Path(args.golden)
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    pinned = golden.setdefault("pinned", {})
    for seed in args.seeds:
        for workload in ("reproduce", "sharded"):
            key, values = pin_one(workload, seed, args.tiny)
            pinned.setdefault(key, {})[str(seed)] = values
            print(f"pinned {key} seed {seed}", flush=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
