"""Benchmark harness: wall-clock timings for the simulate→analyze path.

Times the four build stages (deployment, population, simulation, dataset
construction) plus each experiment's analysis step, and appends one
timestamped record to a JSON artifact (``BENCH_simulation.json`` by
default, a list of records) so regressions are visible across runs.

Entry points::

    cloudwatching bench --scale 1.0          # CLI subcommand
    python benchmarks/run_bench.py           # repo-local wrapper
    python -m repro.bench                    # module form

The benchmark pytest session (``pytest benchmarks/``) appends its own
per-test records to the same artifact via ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Optional, Sequence

__all__ = ["run_bench", "run_stream_bench", "run_serve_bench",
           "run_incident_bench", "append_record", "DEFAULT_ARTIFACT", "main"]

#: Default JSON artifact, written to the current working directory.
DEFAULT_ARTIFACT = "BENCH_simulation.json"

#: Environment variable overriding the artifact path everywhere.
ARTIFACT_ENV = "CLOUDWATCHING_BENCH_JSON"


def artifact_path(override: Optional[str] = None) -> str:
    """Resolve the artifact path (argument > environment > default)."""
    return override or os.environ.get(ARTIFACT_ENV) or DEFAULT_ARTIFACT


def append_record(record: dict, path: Optional[str] = None) -> str:
    """Append one record to the JSON artifact (a list of records).

    A missing or unparsable artifact starts a fresh list rather than
    failing the benchmark that produced the record.
    """
    resolved = artifact_path(path)
    records: list = []
    try:
        with open(resolved, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, list):
            records = existing
    except (OSError, ValueError):
        pass
    records.append(record)
    with open(resolved, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return resolved


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _events_per_s(events: int, seconds: float) -> float:
    """Events per second, rounded to 0.1 (0.0 for a zero-length stage)."""
    return round(events / seconds, 1) if seconds > 0 else 0.0


def run_bench(
    scale: float = 1.0,
    telescope_slash24s: int = 16,
    seed: int = 777,
    year: int = 2021,
    experiments: Optional[Sequence[str]] = None,
    orchestrate_workers: Optional[Sequence[int]] = None,
    orchestrate_sweep: bool = False,
    artifact: Optional[str] = None,
    quiet: bool = False,
) -> dict:
    """Run the simulation bench once and append the record to the artifact.

    ``experiments=None`` times every experiment that runs on ``year``'s
    population; pass an explicit list (possibly empty) to restrict it.
    ``orchestrate_workers`` additionally times a full orchestrated
    collection (simulate → spill → lazy merge, no analysis) at each
    worker count.  Each entry in the record's ``"orchestrate"`` mapping
    is a dict carrying the wall clock, the requested and resolved worker
    counts, the machine's CPU count, and the per-stage split (plan /
    simulate / merge), so speedups and merge overhead are both visible
    across runs.  ``None`` or an empty sequence skips those runs (the
    CLI defaults to ``1 2 4``).  ``orchestrate_sweep=True`` forces the
    canonical ``(1, 2, 4)`` sweep and additionally records each count's
    speedup ratio against the 1-worker run.
    """
    from repro.analysis.dataset import AnalysisDataset
    from repro.cli import EXPERIMENT_YEARS
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, ExperimentContext
    from repro.experiments.context import _WINDOWS
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.engine import SimulationConfig, run_simulation
    from repro.sim.rng import RngHub

    def _say(message: str) -> None:
        if not quiet:
            print(message, flush=True)

    if experiments is not None:
        unknown = [name for name in experiments if name not in ALL_EXPERIMENTS]
        if unknown:
            raise ValueError(
                f"unknown experiments: {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_EXPERIMENTS)})"
            )

    config = ExperimentConfig(
        year=year, scale=scale, telescope_slash24s=telescope_slash24s, seed=seed
    )

    # Orchestrator timings run FIRST, while this process is lean: fork
    # workers inherit the parent address space, and forking after the
    # in-process pipeline has built its datasets measurably slows every
    # worker (copy-on-write over a fat heap).  A real `cloudwatching
    # orchestrate` starts from a lean parent; time the same thing.
    if orchestrate_sweep:
        orchestrate_workers = (1, 2, 4)
    orchestrate_records: dict[str, dict] = {}
    if orchestrate_workers:
        import shutil
        import tempfile

        from repro.runner import orchestrate

        for workers in orchestrate_workers:
            out_dir = tempfile.mkdtemp(prefix=f"cw-bench-orch-{workers}w-")
            try:
                started = time.perf_counter()
                run = orchestrate(
                    config, workers=workers, out_dir=out_dir, quiet=True
                )
                seconds = time.perf_counter() - started
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            orchestrate_records[str(workers)] = {
                "seconds": round(seconds, 4),
                "workers_requested": workers,
                "workers": run.stats.workers,
                "cpu_count": os.cpu_count(),
                "num_shards": run.stats.num_shards,
                "events": run.stats.events_total,
                "plan_seconds": round(run.stats.plan_seconds, 4),
                "simulate_seconds": round(run.stats.simulate_seconds, 4),
                "merge_seconds": round(run.stats.merge_seconds, 4),
            }
            _say(f"orchestrate --workers {workers} ran in {seconds:.2f}s "
                 f"(merge {run.stats.merge_seconds:.2f}s)")

    stages: dict[str, float] = {}

    started = time.perf_counter()
    hub = RngHub(seed)
    deployment = build_full_deployment(hub, num_telescope_slash24s=telescope_slash24s)
    stages["deployment"] = time.perf_counter() - started
    _say(f"deployment built in {stages['deployment']:.2f}s")

    started = time.perf_counter()
    population = build_population(PopulationConfig(year=year, scale=scale))
    stages["population"] = time.perf_counter() - started
    _say(f"population built in {stages['population']:.2f}s ({len(population)} scanners)")

    started = time.perf_counter()
    result = run_simulation(
        deployment,
        population,
        SimulationConfig(seed=seed, window=_WINDOWS[year]),
    )
    stages["simulation"] = time.perf_counter() - started
    events_per_s = _events_per_s(result.total_events(), round(stages["simulation"], 4))
    _say(
        f"simulation ran in {stages['simulation']:.2f}s ({result.total_events():,} events, "
        f"{events_per_s:,.0f} events/s)"
    )

    started = time.perf_counter()
    dataset = AnalysisDataset.from_simulation(result)
    stages["dataset"] = time.perf_counter() - started

    context = ExperimentContext(
        config=config, deployment=deployment, result=result, dataset=dataset
    )

    if experiments is None:
        experiments = [
            experiment_id
            for experiment_id in ALL_EXPERIMENTS
            if EXPERIMENT_YEARS.get(experiment_id, year) == year
        ]

    # X3 orchestrates the two off-base years on first run and caches
    # them on disk, so its timing is bimodal.  Record which mode this
    # run measured — checked before timing so the check itself cannot
    # flip the state it reports.
    x3_cache: Optional[str] = None
    if "X3" in experiments:
        from dataclasses import replace

        from repro.experiments.ext_temporal_stability import _run_cache_dir

        off_years = [y for y in (2020, 2021, 2022) if y != year]
        warm = all(
            (_run_cache_dir(replace(config, year=y)) / "run.json").exists()
            for y in off_years
        )
        x3_cache = "warm" if warm else "cold"

    experiment_timings: dict[str, float] = {}
    for experiment_id in experiments:
        run = ALL_EXPERIMENTS[experiment_id]
        started = time.perf_counter()
        run(context)
        experiment_timings[experiment_id] = time.perf_counter() - started
        _say(f"{experiment_id} analyzed in {experiment_timings[experiment_id]:.2f}s")

    record = {
        "timestamp": _timestamp(),
        "kind": "bench",
        "scale": scale,
        "telescope_slash24s": telescope_slash24s,
        "seed": seed,
        "year": year,
        "events": result.total_events(),
        "stages": {name: round(value, 4) for name, value in stages.items()},
        # The simulation stage's throughput, read off the recorded stage.
        "simulation_events_per_s": events_per_s,
        "stages_total": round(sum(stages.values()), 4),
        "experiments": {
            name: round(value, 4) for name, value in experiment_timings.items()
        },
        "experiments_total": round(sum(experiment_timings.values()), 4),
        "slowest_experiment": (
            max(experiment_timings, key=experiment_timings.get)
            if experiment_timings else None
        ),
    }
    if x3_cache is not None:
        record["x3_cache"] = x3_cache
    if orchestrate_records:
        record["orchestrate"] = orchestrate_records
        baseline = orchestrate_records.get("1")
        if baseline and len(orchestrate_records) > 1:
            # Speedup vs the 1-worker run: >1.0 means the sharded path
            # beat single-worker wall clock at that worker count.
            record["orchestrate_speedup"] = {
                workers: round(baseline["seconds"] / entry["seconds"], 4)
                for workers, entry in orchestrate_records.items()
                if workers != "1" and entry["seconds"] > 0
            }
            for workers, ratio in sorted(record["orchestrate_speedup"].items()):
                _say(f"orchestrate speedup {workers}w vs 1w: {ratio:.2f}x")
    written = append_record(record, artifact)
    _say(
        f"build total {record['stages_total']:.2f}s, "
        f"analysis total {sum(experiment_timings.values()):.2f}s; "
        f"record appended to {written}"
    )
    return record


def run_stream_bench(
    scale: float = 1.0,
    telescope_slash24s: int = 16,
    seed: int = 777,
    year: int = 2021,
    chunk_events: int = 4096,
    sketch_k: int = 64,
    max_buffered_events: int = 65536,
    artifact: Optional[str] = None,
    quiet: bool = False,
) -> dict:
    """Benchmark sustained ingest through the streaming subsystem.

    Simulates one window (untapped, so simulation cost is excluded),
    then streams every vantage's consolidated table through a default
    :class:`~repro.stream.bus.StreamBus` into a full
    :class:`~repro.stream.analyzer.StreamAnalyzer` (sketches + HLLs +
    windows + leak alarm) in ``chunk_events``-row chunks, timing the
    ingest alone.  The appended record reports events/s, the peak
    sketch+window state bytes, and the bus's drop/backpressure counters
    (zero drops expected at the default queue size).
    """
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments.context import _WINDOWS
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.engine import SimulationConfig, run_simulation
    from repro.sim.rng import RngHub
    from repro.stream.analyzer import StreamAnalyzer
    from repro.stream.bus import StreamBus
    from repro.stream.watch import stream_table

    def _say(message: str) -> None:
        if not quiet:
            print(message, flush=True)

    hub = RngHub(seed)
    deployment = build_full_deployment(hub, num_telescope_slash24s=telescope_slash24s)
    population = build_population(PopulationConfig(year=year, scale=scale))
    started = time.perf_counter()
    result = run_simulation(
        deployment, population, SimulationConfig(seed=seed, window=_WINDOWS[year])
    )
    simulate_seconds = time.perf_counter() - started
    tables = result.tables()
    # Consolidate columns up front so the timed section is pure ingest.
    for table in tables.values():
        if len(table):
            table.timestamps
    _say(f"simulated {result.total_events():,} events in {simulate_seconds:.2f}s; "
         f"streaming in {chunk_events}-event chunks ...")

    bus = StreamBus(max_buffered_events=max_buffered_events)
    analyzer = StreamAnalyzer(
        hours=_WINDOWS[year].hours,
        sketch_k=sketch_k,
        leak_experiment=deployment.leak_experiment,
    )
    bus.subscribe(analyzer)
    started = time.perf_counter()
    for vantage_id in sorted(tables):
        stream_table(bus, tables[vantage_id], chunk_events)
    bus.close()
    ingest_seconds = time.perf_counter() - started

    events = analyzer.events_consumed
    record = {
        "timestamp": _timestamp(),
        "kind": "stream-bench",
        "scale": scale,
        "telescope_slash24s": telescope_slash24s,
        "seed": seed,
        "year": year,
        "sketch_k": sketch_k,
        "chunk_events": chunk_events,
        "max_buffered_events": max_buffered_events,
        "events": events,
        "chunks": analyzer.chunks_consumed,
        "vantages": len(analyzer.events_per_vantage),
        "simulate_seconds": round(simulate_seconds, 4),
        "ingest_seconds": round(ingest_seconds, 4),
        "events_per_second": round(events / ingest_seconds, 1) if ingest_seconds else 0.0,
        "state_bytes": analyzer.state_bytes(),
        "bus": bus.stats.as_dict(),
    }
    written = append_record(record, artifact)
    _say(
        f"streamed {events:,} events in {ingest_seconds:.2f}s "
        f"({record['events_per_second']:,.0f} events/s), "
        f"state ~{record['state_bytes']:,} B, "
        f"{bus.stats.dropped_events} dropped / "
        f"{bus.stats.backpressure_flushes} backpressure flush(es); "
        f"record appended to {written}"
    )
    return record


def run_incident_bench(
    scale: float = 0.1,
    telescope_slash24s: int = 8,
    seed: int = 777,
    year: int = 2021,
    artifact: Optional[str] = None,
    quiet: bool = False,
) -> dict:
    """Benchmark the incident closed loop; append the record.

    Times two things over one simulated window: the detection pass alone
    (``detect_incidents`` over the canonical hour-major replay — the cost
    a ``watch --incidents`` session pays on top of plain ingest) and the
    full X5 closed loop (detection + shard-wise blocked-volume scan +
    static-baseline arm + the enforced re-simulation self-check).  The
    record carries the loop's headline quality numbers — mean detection
    latency and auto/static volume reduction — alongside the wall
    clocks, so a regression in either speed or efficacy shows up in the
    same artifact.
    """
    from repro.analysis.dataset import AnalysisDataset
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments import ExperimentConfig, ExperimentContext
    from repro.experiments.context import _WINDOWS
    from repro.experiments.ext_closed_loop import closed_loop_metrics
    from repro.incident.pipeline import detect_incidents
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.engine import SimulationConfig, run_simulation
    from repro.sim.rng import RngHub

    def _say(message: str) -> None:
        if not quiet:
            print(message, flush=True)

    config = ExperimentConfig(
        year=year, scale=scale, telescope_slash24s=telescope_slash24s, seed=seed
    )
    hub = RngHub(seed)
    deployment = build_full_deployment(hub, num_telescope_slash24s=telescope_slash24s)
    population = build_population(PopulationConfig(year=year, scale=scale))
    started = time.perf_counter()
    result = run_simulation(
        deployment, population, SimulationConfig(seed=seed, window=_WINDOWS[year])
    )
    simulate_seconds = time.perf_counter() - started
    dataset = AnalysisDataset.from_simulation(result)
    context = ExperimentContext(
        config=config, deployment=deployment, result=result, dataset=dataset
    )
    _say(f"simulated {result.total_events():,} events in {simulate_seconds:.2f}s; "
         f"running detection ...")

    started = time.perf_counter()
    pipeline = detect_incidents(dataset)
    detection_seconds = time.perf_counter() - started
    summary = pipeline.summary()
    _say(f"detection pass: {summary['incidents']} incident(s), "
         f"{summary['actions']} action(s) in {detection_seconds:.2f}s")

    started = time.perf_counter()
    metrics = closed_loop_metrics(context, verify_resim=True)
    closed_loop_seconds = time.perf_counter() - started
    record = {
        "timestamp": _timestamp(),
        "kind": "incident-bench",
        "scale": scale,
        "telescope_slash24s": telescope_slash24s,
        "seed": seed,
        "year": year,
        "events": result.total_events(),
        "simulate_seconds": round(simulate_seconds, 4),
        "detection_seconds": round(detection_seconds, 4),
        "closed_loop_seconds": round(closed_loop_seconds, 4),
        "incidents": metrics["incidents"],
        "actions": metrics["actions"],
        "blocklist_entries": len(metrics["blocklist_entries"]),
        "mean_detection_latency_hours": metrics["mean_detection_latency_hours"],
        "auto_volume_reduction_pct": metrics["auto_volume_reduction_pct"],
        "static_volume_reduction_pct": metrics["static_volume_reduction_pct"],
        "resim_exact": bool(metrics["resim"] and metrics["resim"]["exact"]),
        "audit_digest": metrics["audit_digest"],
    }
    written = append_record(record, artifact)
    latency = record["mean_detection_latency_hours"]
    _say(
        f"closed loop in {closed_loop_seconds:.2f}s: "
        f"{record['auto_volume_reduction_pct']:.1f}% auto volume reduction "
        f"(static {record['static_volume_reduction_pct']:.1f}%), "
        f"mean detection latency "
        + (f"{latency:.1f}h" if latency is not None else "n/a")
        + f", re-simulation exact={record['resim_exact']}; "
        f"record appended to {written}"
    )
    return record


def run_serve_bench(
    scale: float = 0.1,
    telescope_slash24s: int = 8,
    seed: int = 777,
    year: int = 2021,
    connections: int = 1000,
    duration_seconds: float = 5.0,
    live_connections: int = 64,
    artifact: Optional[str] = None,
    quiet: bool = False,
) -> dict:
    """Benchmark the serving layer under concurrent load; append the record.

    Two phases, mirroring the two backends:

    1. **live** — simulate one window streaming through a default-sized
       :class:`~repro.stream.bus.StreamBus` into the live backend on an
       ingest thread, while ``live_connections`` concurrent clients
       query the HTTP server the whole time.  The record keeps the bus's
       drop counters: the acceptance bar is *zero* drops at the default
       queue size while queries are being answered.
    2. **run-dir** — orchestrate a small run, serve it exactly, and hold
       ``connections`` (≥ 1000 for the pinned record) keep-alive clients
       open for ``duration_seconds``, recording sustained RPS and
       p50/p99 request latency.
    """
    import asyncio
    import shutil
    import tempfile
    import threading

    from repro.deployment.fleet import build_full_deployment
    from repro.experiments import ExperimentConfig
    from repro.experiments.context import _WINDOWS
    from repro.runner import orchestrate
    from repro.scanners.population import PopulationConfig, build_population
    from repro.serve import QueryServer, RunDirBackend, ServeOptions, run_load
    from repro.serve.backends import build_live_pipeline
    from repro.sim.engine import SimulationConfig, run_simulation
    from repro.sim.rng import RngHub

    def _say(message: str) -> None:
        if not quiet:
            print(message, flush=True)

    config = ExperimentConfig(
        year=year, scale=scale, telescope_slash24s=telescope_slash24s, seed=seed
    )

    # -- phase 1: live backend queried during ingest -------------------
    hub = RngHub(seed)
    deployment = build_full_deployment(hub, num_telescope_slash24s=telescope_slash24s)
    population = build_population(PopulationConfig(year=year, scale=scale))
    bus, analyzer, _tracker, live_backend = build_live_pipeline(
        _WINDOWS[year].hours, leak_experiment=deployment.leak_experiment
    )

    async def _live_phase() -> dict:
        async with QueryServer(live_backend, ServeOptions()) as server:
            ingest = threading.Thread(
                target=lambda: (
                    run_simulation(
                        deployment,
                        population,
                        SimulationConfig(seed=seed, window=_WINDOWS[year]),
                        tap=bus.table_tap(),
                    ),
                    bus.close(),
                ),
                daemon=True,
            )
            started = time.perf_counter()
            ingest.start()
            paths = ["/healthz", "/vantages", "/stats",
                     "/compare?characteristic=as", "/cardinality"]
            reports = []
            while True:
                reports.append(await run_load(
                    server.options.host, server.port, paths,
                    connections=live_connections, duration_seconds=0.5,
                ))
                if not ingest.is_alive():
                    break
            ingest.join()
            seconds = time.perf_counter() - started
            await server.stop()
            queries = sum(report.requests for report in reports)
            return {
                "ingest_seconds": round(seconds, 4),
                "events": analyzer.events_consumed,
                "connections": live_connections,
                "queries_during_ingest": queries,
                "query_errors": sum(report.errors for report in reports),
                "bus": bus.stats.as_dict(),
                "server": server.stats.as_dict(),
            }

    live_record = asyncio.run(_live_phase())
    _say(f"live phase: {live_record['events']:,} events ingested in "
         f"{live_record['ingest_seconds']:.2f}s while answering "
         f"{live_record['queries_during_ingest']:,} queries "
         f"({live_record['bus']['dropped_events']} events dropped)")

    # -- phase 2: run-dir backend at full concurrency ------------------
    out_dir = tempfile.mkdtemp(prefix="cw-bench-serve-")
    try:
        run = orchestrate(config, workers=2, out_dir=out_dir, quiet=True)
        backend = RunDirBackend(out_dir)
        busiest = max(backend.dataset.tables, key=lambda v: len(backend.dataset.tables[v]))
        paths = [
            "/healthz",
            "/vantages",
            "/cardinality",
            f"/top?vantage={busiest}&characteristic=as&k=3",
            f"/volumes?vantage={busiest}",
            "/compare?characteristic=username&k=3",
            "/alarms",
            "/stats",
        ]

        async def _run_dir_phase():
            async with QueryServer(backend, ServeOptions()) as server:
                # Warm the content-addressed cache so the measured phase
                # is the steady state a long-lived server actually runs.
                await run_load(server.options.host, server.port, paths,
                               connections=8, duration_seconds=0.5)
                report = await run_load(
                    server.options.host, server.port, paths,
                    connections=connections, duration_seconds=duration_seconds,
                )
                stats = server.stats.as_dict()
                await server.stop()
                return report, stats

        report, server_stats = asyncio.run(_run_dir_phase())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record = {
        "timestamp": _timestamp(),
        "kind": "serve-bench",
        "scale": scale,
        "telescope_slash24s": telescope_slash24s,
        "seed": seed,
        "year": year,
        "events": run.stats.events_total,
        "live": live_record,
        "run_dir": {
            "connections": report.connections,
            "duration_seconds": duration_seconds,
            **{key: value for key, value in report.as_dict().items()
               if key != "connections"},
            "server": server_stats,
        },
    }
    written = append_record(record, artifact)
    _say(
        f"run-dir phase: {report.requests:,} requests over "
        f"{report.connections:,} concurrent connections in "
        f"{report.seconds:.2f}s ({report.rps:,.0f} req/s, "
        f"p50 {report.p50_ms:.2f}ms, p99 {report.p99_ms:.2f}ms); "
        f"record appended to {written}"
    )
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_bench", description="Time the simulate→analyze pipeline."
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population scale factor (default 1.0, the pinned bench scale)")
    parser.add_argument("--telescope", type=int, default=16,
                        help="telescope size in /24s (default 16)")
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    parser.add_argument("--experiments", nargs="*", default=None, metavar="ID",
                        help="experiment ids to time (default: all for the year)")
    parser.add_argument("--orchestrate-workers", nargs="*", type=int, default=(),
                        metavar="N",
                        help="worker counts to time the orchestrator at "
                             "(default: skip; the CLI bench uses 1 2 4)")
    parser.add_argument("--orchestrate-sweep", action="store_true",
                        help="time the canonical 1/2/4-worker orchestrator sweep "
                             "in one invocation and record speedup ratios vs 1 "
                             "worker (overrides --orchestrate-workers)")
    parser.add_argument("--stream", action="store_true",
                        help="run the streaming sustained-ingest bench instead "
                             "of the simulate→analyze bench")
    parser.add_argument("--chunk-events", type=int, default=4096,
                        help="stream bench: rows per published chunk (default 4096)")
    parser.add_argument("--sketch-k", type=int, default=64,
                        help="stream bench: Space-Saving capacity (default 64)")
    parser.add_argument("--output", default=None, metavar="BENCH.json",
                        help=f"artifact path (default ${ARTIFACT_ENV} or {DEFAULT_ARTIFACT})")
    args = parser.parse_args(argv)
    try:
        if args.stream:
            run_stream_bench(
                scale=args.scale,
                telescope_slash24s=args.telescope,
                seed=args.seed,
                year=args.year,
                chunk_events=args.chunk_events,
                sketch_k=args.sketch_k,
                artifact=args.output,
            )
        else:
            run_bench(
                scale=args.scale,
                telescope_slash24s=args.telescope,
                seed=args.seed,
                year=args.year,
                experiments=args.experiments,
                orchestrate_workers=tuple(args.orchestrate_workers),
                orchestrate_sweep=args.orchestrate_sweep,
                artifact=args.output,
            )
    except ValueError as error:
        parser.error(str(error))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
