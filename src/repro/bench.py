"""Benchmark harness: wall-clock timings for the simulate→analyze path.

Times the four build stages (deployment, population, simulation, dataset
construction) plus each experiment's analysis step, and appends one
timestamped record to a JSON artifact (``BENCH_simulation.json`` by
default, a list of records) so regressions are visible across runs.
:func:`run_serve_bench` records the serving layer under load instead.

Entry points::

    cloudwatching bench --scale 1.0          # CLI subcommand
    python benchmarks/run_bench.py           # forwards to the CLI subcommand

The benchmark pytest session (``pytest benchmarks/``) appends its own
per-test records to the same artifact via ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional, Sequence

__all__ = ["run_bench", "run_serve_bench", "append_record", "DEFAULT_ARTIFACT"]

#: Default JSON artifact, written to the current working directory.
DEFAULT_ARTIFACT = "BENCH_simulation.json"

#: Environment variable overriding the artifact path everywhere.
ARTIFACT_ENV = "CLOUDWATCHING_BENCH_JSON"

#: Concurrent clients querying the live backend during the serve bench's ingest.
_LIVE_CONNECTIONS = 64


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
    artifact: Optional[str] = None,
    quiet: bool = False,
) -> dict:
    """Run the simulation bench once and append the record to the artifact.

    ``experiments=None`` times every experiment that runs on ``year``'s
    population; pass an explicit list (possibly empty) to restrict it.
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
    written = append_record(record, artifact)
    _say(
        f"build total {record['stages_total']:.2f}s, "
        f"analysis total {sum(experiment_timings.values()):.2f}s; "
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
    artifact: Optional[str] = None,
    quiet: bool = False,
) -> dict:
    """Benchmark the serving layer under concurrent load; append the record.

    Two phases, mirroring the two backends:

    1. **live** — simulate one window streaming through a default-sized
       :class:`~repro.stream.bus.StreamBus` into the live backend on an
       ingest thread, while 64 concurrent clients query the HTTP server
       the whole time.  The record keeps the bus's drop counters: the
       acceptance bar is *zero* drops at the default queue size while
       queries are being answered.
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
    from repro.serve.backends import build_live_pipeline, ingest_live
    from repro.sim.engine import SimulationConfig
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
                target=ingest_live,
                args=(bus, live_backend, deployment, population,
                      SimulationConfig(seed=seed, window=_WINDOWS[year])),
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
                    connections=_LIVE_CONNECTIONS, duration_seconds=0.5,
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
                "connections": _LIVE_CONNECTIONS,
                "queries_during_ingest": queries,
                "query_errors": sum(report.errors for report in reports),
                "bus": bus.stats.as_dict(),
                "server": server.stats.as_dict(),
            }

    live_record = asyncio.run(_live_phase())
    if live_backend.failure is not None:
        raise RuntimeError("live phase: ingest failed") from live_backend.failure
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
