"""Self-tests of the benchmark, at a tiny scale (a few minutes on 2 CPUs).

    python3 perfbench/selftest.py

1. Every workload prints every end-to-end metric (``--trace 0``) and
   every per-layer metric (``--trace 1``), each with the unit
   ``BENCHMARK.json`` gives it, and exits 0.  Traced runs check their
   spans (``run.py`` counts a span problem as a failed operation) and
   attribute at least 90% of each timed phase to named layer spans.
2. Values pinned by ``pin.py`` for a seed pass when they hold, and a
   corrupted pinned digest makes the run exit 1 with ``failed > 0``.
3. The span checker flags a missing parent and children that outlast
   their parent, and attribution counts only spans a metric reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SEED = 3
WORK = ROOT / ".perfbench-work" / "selftest"


def run(workload: str, trace: int, golden=None) -> tuple[int, dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "2", "--trace", str(trace), "--tiny"]
    if golden is not None:
        argv += ["--golden", str(golden)]
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no result (exit {done.returncode}):\n{done.stderr}")
    record = json.loads(lines[-2][len("perfbench-record "):])
    return done.returncode, json.loads(lines[-1]), record


def test_metrics_and_units() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[section]}
        for workload in ("reproduce", "sharded", "live"):
            code, result, record = run(workload, trace)
            assert code == 0, f"{workload} --trace {trace}: exit {code}, {record['failures']}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == units, f"{workload} --trace {trace}: metrics/units differ"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            if trace:
                shares = record["trace"]["attributed"]
                assert shares and min(shares.values()) >= 0.9, f"{workload}: attributed {shares}"
            print(f"ok: {workload} --trace {trace} prints {len(units)} metrics with units",
                  flush=True)


def test_pinned_values() -> None:
    golden = WORK / "golden.json"
    subprocess.run([sys.executable, str(HERE / "pin.py"), "--seeds", str(SEED), "--tiny",
                    "--golden", str(golden)], cwd=str(ROOT), check=True, timeout=600,
                   capture_output=True)
    for workload in ("reproduce", "sharded"):
        code, result, _ = run(workload, 0, golden)
        assert code == 0 and result["failed"] == 0, f"{workload}: pinned values do not repeat"
    print("ok: pinned digests repeat for the same seed", flush=True)

    values = json.loads(golden.read_text(encoding="utf-8"))
    for key, seeds in values["pinned"].items():
        pinned = seeds[str(SEED)]
        if key.startswith("reproduce/"):
            pinned["T1"] = "0" * 64
        else:
            pinned["audit_digest"] = "0" * 64
    golden.write_text(json.dumps(values), encoding="utf-8")
    for workload in ("reproduce", "sharded"):
        code, result, record = run(workload, 0, golden)
        assert code != 0, f"{workload}: a corrupted pinned value still exits 0"
        assert result["failed"] > 0 and not result["correct"]
        assert record["failed_ratio"] > 0
        print(f"ok: {workload} with a corrupted pinned value exits {code}, "
              f"failed_ratio {record['failed_ratio']:.2e}", flush=True)


def test_span_checker() -> None:
    good = {"names": ["a", "b"], "spans": [[0, 0, 100, -1, 1], [1, 10, 60, 0, 1]]}
    assert tracer.check_spans(good) == []
    orphan = {"names": ["a"], "spans": [[0, 0, 10, 5, 1]]}
    assert tracer.check_spans(orphan)
    overlong = {"names": ["a", "b"],
                "spans": [[0, 0, 100, -1, 1], [1, 0, 70, 0, 1], [1, 40, 100, 0, 1]]}
    assert any("outlast" in problem for problem in tracer.check_spans(overlong))
    profile = tracer.layer_profile(good)
    assert profile["a"]["self_s"] == 50 / 1e9 and profile["b"]["calls"] == 1
    # Only the self time of reported spans is attributed: a wrapper that
    # no metric reports covers nothing by itself.
    phase = {"names": ["phase.x", "wrapper", "layer"],
             "spans": [[0, 0, 100, -1, 1], [1, 0, 100, 0, 1], [2, 10, 40, 1, 1]]}
    assert tracer.attributed_share(phase, "phase.x", {"layer"}) == 0.3
    assert tracer.attributed_share(phase, "phase.x", {"layer", "wrapper"}) == 1.0
    print("ok: span checker flags orphans and overlong children; "
          "attribution counts reported spans only", flush=True)


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        test_span_checker()
        test_metrics_and_units()
        test_pinned_values()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
