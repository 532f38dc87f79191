"""One in-process pass of a workload, run in a fresh interpreter.

``python3 perfbench/child.py SPEC.json`` imports ``repro``, does the
workload's set-up, prints ``READY`` (the parent times set-up from launch
to that line), runs the timed calls, and prints one ``RESULT {json}``
line.  With ``"trace"`` set in the spec, the span wrappers of
``tracer.py`` are installed before set-up and the spans are written to
``spec["trace"]`` at exit.  With ``"setup_only"`` set, the job returns
right after ``READY``: a set-up timing of the same job.

Jobs:

* ``reproduce`` — simulate one week, build the analysis dataset, run and
  render the selected experiments (the ``cloudwatching run`` path).
* ``sharded`` — ``orchestrate`` with 2 workers, then ``watch_run_dir``,
  then ``load_run_dir`` + ``detect_incidents`` writing the audit log and
  blocklist (the operator path before serving).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, install  # noqa: E402


def _call(module: str, name: str):
    """Look a function up at call time, so installed wrappers are used."""
    return getattr(importlib.import_module(module), name)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _ready(spec: dict) -> bool:
    """Print READY; true when the job should stop here (``setup_only``)."""
    print("READY", flush=True)
    return bool(spec.get("setup_only"))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _config(spec: dict):
    from repro.experiments.context import ExperimentConfig

    return ExperimentConfig(
        year=spec["year"], scale=spec["scale"],
        telescope_slash24s=spec["telescope"], seed=spec["seed"],
    )


# -- reproduce ---------------------------------------------------------------


def reproduce(spec: dict, tracer) -> dict:
    from repro.analysis.dataset import AnalysisDataset
    from repro.experiments import ALL_EXPERIMENTS, ExperimentContext
    from repro.experiments.context import _WINDOWS
    from repro.scanners.population import PopulationConfig
    from repro.sim.engine import SimulationConfig
    from repro.sim.rng import RngHub

    if tracer is not None:
        install(tracer)
    config = _config(spec)
    deployment = _call("repro.deployment.fleet", "build_full_deployment")(
        RngHub(config.seed), num_telescope_slash24s=config.telescope_slash24s
    )
    population = _call("repro.scanners.population", "build_population")(
        PopulationConfig(year=config.year, scale=config.scale)
    )
    if _ready(spec):
        return {"peak_rss_mb": _peak_rss_mb()}

    digests = {}
    started = time.perf_counter()
    with _span(tracer, "phase.reproduce"):
        result = _call("repro.sim.engine", "run_simulation")(
            deployment, population,
            SimulationConfig(seed=config.seed, window=_WINDOWS[config.year]),
        )
        simulated = time.perf_counter() - started
        dataset = AnalysisDataset.from_simulation(result)
        context = ExperimentContext(
            config=config, deployment=deployment, result=result, dataset=dataset
        )
        for experiment_id in spec["experiments"]:
            with _span(tracer, f"experiments.{experiment_id}"):
                output = ALL_EXPERIMENTS[experiment_id](context)
            with _span(tracer, "reporting.render"):
                text = output.render()
            digests[experiment_id] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    elapsed = time.perf_counter() - started
    return {
        "reproduce_s": elapsed,
        "simulate_s": simulated,
        "digests": digests,
        "sim_events": int(result.total_events()),
        "dataset_rows": int(sum(len(table) for table in dataset.tables.values())),
        "peak_rss_mb": _peak_rss_mb(),
    }


# -- sharded -----------------------------------------------------------------


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


#: Modules the sharded phases call into, imported during set-up so that
#: no phase pays for an import.
SHARDED_MODULES = (
    "repro.runner.orchestrator",
    "repro.analysis.dataset",
    "repro.stream.watch",
    "repro.serve.backends",
    "repro.incident.pipeline",
    "repro.analysis.blocklists",
)


def sharded(spec: dict, tracer) -> dict:
    import numpy as np

    for module in SHARDED_MODULES:
        importlib.import_module(module)
    from repro.stream.watch import WatchOptions

    if tracer is not None:
        install(tracer)
    config = _config(spec)
    run_dir = Path(spec["run_dir"])
    work = Path(spec["work"])
    if _ready(spec):
        return {"peak_rss_mb": _peak_rss_mb()}

    phases = {}
    started = time.perf_counter()
    with _span(tracer, "phase.collect"):
        run = _call("repro.runner.orchestrator", "orchestrate")(
            config, workers=spec["workers"], out_dir=run_dir, quiet=True
        )
    phases["collect_s"] = time.perf_counter() - started
    with open(run_dir / "run.json", "r", encoding="utf-8") as handle:
        run_record = json.load(handle)
    collect = {
        "run_json_events": int(run_record["events_total"]),
        "merged_rows": int(sum(len(t) for t in run.context.dataset.tables.values())),
        "coverage": float(run.coverage()),
        "failures": sorted(run.failures),
        "shards_complete": sorted(
            int(index) for index, shard in run_record["shards"].items()
            if shard["status"] == "complete"
        ),
        "num_shards": int(run.stats.num_shards),
        "plan_s": run.stats.plan_seconds,
        "simulate_s": run.stats.simulate_seconds,
        "merge_s": run.stats.merge_seconds,
        "retries": int(run.stats.retries),
        "spill_bytes": _dir_bytes(run_dir),
    }
    del run

    lines: list[str] = []
    started = time.perf_counter()
    with _span(tracer, "phase.watch"):
        summary = _call("repro.stream.watch", "watch_run_dir")(
            run_dir,
            WatchOptions(chunk_events=4096, snapshot_events=0, incidents=True),
            say=lines.append,
        )
    phases["watch_s"] = time.perf_counter() - started

    audit_path = work / "audit.ndjson"
    blocklist_path = work / "blocklist.txt"
    started = time.perf_counter()
    with _span(tracer, "phase.respond"):
        _config_read, dataset, _digest = _call("repro.serve.backends", "load_run_dir")(run_dir)
        pipeline = _call("repro.incident.pipeline", "detect_incidents")(dataset)
        audit_records = pipeline.audit.write(audit_path)
        _call("repro.analysis.blocklists", "write_blocklist_file")(
            blocklist_path, asns=(entry.asn for entry in pipeline.executor.blocklist)
        )
    phases["respond_s"] = time.perf_counter() - started
    peak = _peak_rss_mb()

    respond = {
        "audit_digest": pipeline.audit.digest(),
        "audit_records": int(audit_records),
        "incidents": int(pipeline.summary()["incidents"]),
        "chunks": int(pipeline.analyzer.chunks_consumed),
        "events": int(pipeline.analyzer.events_consumed),
        "load_rows": int(sum(len(t) for t in dataset.tables.values())),
    }

    # Query universe for the serving phase (untimed): vantages by volume
    # and every source that was seen.
    vantages = sorted(dataset.tables, key=lambda v: (-len(dataset.tables[v]), v))
    ips = np.unique(np.concatenate(
        [np.asarray(dataset.tables[v].src_ip, dtype=np.uint32) for v in vantages]
    )).tolist()
    targets = _expected_targets(vantages, ips)
    expected = {}
    if spec["expect"]:
        from repro.serve.backends import RunDirBackend

        backend = RunDirBackend(run_dir)
        for target in targets:
            path, _, query = target.partition("?")
            params = dict(pair.split("=", 1) for pair in query.split("&") if pair)
            body = backend.handle(path, params)
            expected[target] = json.dumps(body, separators=(",", ":"), sort_keys=True)

    return {
        **phases,
        "collect": collect,
        "watch": {
            "events": int(summary["events"]),
            "chunks": int(summary["chunks"]),
            "state_bytes": int(summary["state_bytes"]),
            "dropped_events": int(summary["bus"]["dropped_events"]),
            "backpressure_flushes": int(summary["bus"]["backpressure_flushes"]),
            "incidents": int((summary.get("incidents") or {}).get("incidents", 0)),
        },
        "respond": respond,
        "vantages": vantages,
        "ips": ips,
        "check_targets": targets,
        "expected": expected,
        "peak_rss_mb": peak,
    }


def _expected_targets(vantages: list[str], ips: list[int]) -> list[str]:
    """The fixed sample of run-dir queries checked byte for byte."""
    def dotted(ip: int) -> str:
        return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    busiest, second = vantages[0], vantages[min(1, len(vantages) - 1)]
    return [
        "/healthz",
        "/vantages",
        "/cardinality",
        "/alarms",
        "/compare?characteristic=as&k=3",
        "/compare?characteristic=username&k=3",
        f"/top?vantage={busiest}&characteristic=as&k=3",
        f"/top?vantage={busiest}&characteristic=payload&k=5",
        f"/top?vantage={second}&characteristic=password&k=3",
        f"/volumes?vantage={busiest}",
        f"/cardinality?vantage={second}",
        f"/ip?ip={dotted(ips[0])}",
    ]


JOBS = {"reproduce": reproduce, "sharded": sharded}


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = Tracer() if spec.get("trace") else None
    try:
        result = JOBS[spec["job"]](spec, tracer)
    finally:
        if tracer is not None:
            tracer.dump(spec["trace"])
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
