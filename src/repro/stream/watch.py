"""The `cloudwatching watch` service: attach, stream, snapshot.

Three attachment modes, all feeding the same
:class:`~repro.stream.bus.StreamBus` →
:class:`~repro.stream.analyzer.StreamAnalyzer` pipeline:

* :func:`watch_simulation` — tap a simulation's columnar emission path
  while it runs (the CI smoke mode: one process, no sockets, real
  streaming cadence);
* :func:`watch_run_dir` — attach to an ``orchestrate`` spill directory
  and stream completed shards chunk by chunk, optionally *following*
  the directory while workers are still writing new shards;
* :func:`watch_live` — attach to a live asyncio honeypot fleet on
  loopback and snapshot on a wall-clock cadence.

Snapshots render top-k characteristic tables, per-vantage rates and
distinct-source estimates, spike counts, leak alarms, and the bus's
drop/backpressure accounting.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.io.table import COLUMNS
from repro.stream.analyzer import StreamAnalyzer
from repro.stream.bus import BusStats, StreamBus, StreamFrame

__all__ = ["WatchOptions", "SnapshotPrinter", "watch_simulation",
           "watch_run_dir", "watch_live", "stream_table"]

#: Times a manifest-bearing but unreadable shard is retried before the
#: follow loop abandons it (each retry backs off exponentially).
_MAX_SHARD_ATTEMPTS = 6
#: Ceiling on the per-shard retry backoff (seconds).
_MAX_SHARD_BACKOFF = 5.0


@dataclass
class WatchOptions:
    """Knobs shared by every attachment mode."""

    #: Space-Saving sketch capacity per (vantage, characteristic).
    sketch_k: int = 64
    #: Categories shown per table (and the §3.3 union k).
    top_k: int = 3
    #: Rows per published chunk when re-chunking stored tables.
    chunk_events: int = 4096
    #: Emit a snapshot every N consumed events (0 = only the final one).
    snapshot_events: int = 25000
    #: Stop after this many periodic snapshots (0 = unlimited).
    max_snapshots: int = 0
    #: Bus buffer bound (events) and overflow policy.
    max_buffered_events: int = 65536
    policy: str = "backpressure"
    #: Trailing window (hours) for leak alarms (None = full window).
    trailing_hours: Optional[int] = None
    #: Run incident detection alongside the sketches (the default; the
    #: rules piggyback on state the analyzer maintains anyway).
    incidents: bool = True
    #: Write the incident audit log here at the end of the watch.
    audit_log: Optional[str] = None
    #: Snapshot rendering: "text" tables or one JSON object per snapshot.
    format: str = "text"


class SnapshotPrinter:
    """Bus subscriber that renders snapshots on an event cadence."""

    def __init__(
        self,
        analyzer: StreamAnalyzer,
        bus_stats: BusStats,
        options: WatchOptions,
        say: Callable[[str], None],
        incidents=None,
    ) -> None:
        self.analyzer = analyzer
        #: The bus's counters, not the bus: the bus holds this printer as
        #: a subscriber, and a back-reference would keep every watch
        #: session in a cycle until a full collection.
        self.bus_stats = bus_stats
        self.options = options
        self.say = say
        #: The attached IncidentPipeline, when detection is on.
        self.incidents = incidents
        self.snapshots_rendered = 0
        self._next_at = options.snapshot_events or 0

    def _due_after(self, next_at: int, events: int) -> int:
        """The first cadence point past ``events``, stepping from ``next_at``."""
        every = self.options.snapshot_events
        return next_at + every * ((events - next_at) // every + 1)

    def cuts(self, frame: StreamFrame) -> list[int]:
        """Chunks of ``frame`` after which a snapshot comes due."""
        options = self.options
        if not options.snapshot_events:
            return []
        left = (options.max_snapshots - self.snapshots_rendered
                if options.max_snapshots else frame.num_chunks)
        ends = self.analyzer.events_consumed + np.cumsum(frame.lengths)
        cuts = []
        next_at = self._next_at
        while left > 0:
            index = int(np.searchsorted(ends, next_at))
            if index == len(ends):
                break
            cuts.append(index)
            left -= 1
            next_at = self._due_after(next_at, int(ends[index]))
        return cuts

    def consume(self, frame: StreamFrame) -> None:
        options = self.options
        if not options.snapshot_events:
            return
        if options.max_snapshots and self.snapshots_rendered >= options.max_snapshots:
            return
        if self.analyzer.events_consumed >= self._next_at:
            self.emit()
            self._next_at = self._due_after(self._next_at, self.analyzer.events_consumed)

    def emit(self, final: bool = False) -> None:
        if final and self.incidents is not None:
            self.incidents.finalize()
        snapshot = self.analyzer.snapshot(
            top_k=self.options.top_k,
            bus_stats=self.bus_stats,
            trailing_hours=self.options.trailing_hours,
        )
        if self.incidents is not None:
            snapshot.incidents = self.incidents.summary()
        if self.options.format == "json":
            self.say(json.dumps(snapshot.as_dict(), sort_keys=True))
        else:
            self.say(snapshot.render())
        self.snapshots_rendered += 1


def _pipeline(
    hours: int,
    options: WatchOptions,
    say: Callable[[str], None],
    leak_experiment=None,
) -> tuple[StreamBus, StreamAnalyzer, SnapshotPrinter]:
    bus = StreamBus(max_buffered_events=options.max_buffered_events,
                    policy=options.policy)
    analyzer = StreamAnalyzer(hours=hours, sketch_k=options.sketch_k,
                              leak_experiment=leak_experiment)
    incidents = None
    if options.incidents:
        from repro.incident.pipeline import IncidentPipeline

        incidents = IncidentPipeline(analyzer)
    printer = SnapshotPrinter(analyzer, bus.stats, options, say, incidents=incidents)
    bus.subscribe(analyzer)
    if incidents is not None:
        # After the analyzer (rules read sketched hours), before the
        # printer (snapshots see the hour's incidents).
        bus.subscribe(incidents)
    bus.subscribe(printer)
    return bus, analyzer, printer


def _summary(bus: StreamBus, analyzer: StreamAnalyzer, printer: SnapshotPrinter,
             seconds: float) -> dict:
    summary = {
        "events": analyzer.events_consumed,
        "chunks": analyzer.chunks_consumed,
        "vantages": len(analyzer.events_per_vantage),
        "snapshots": printer.snapshots_rendered,
        "state_bytes": analyzer.state_bytes(),
        "seconds": round(seconds, 4),
        "bus": bus.stats.as_dict(),
        "incidents": None,
    }
    pipeline = printer.incidents
    if pipeline is not None:
        summary["incidents"] = pipeline.summary()
        if printer.options.audit_log:
            records = pipeline.audit.write(printer.options.audit_log)
            summary["audit_log"] = {
                "path": printer.options.audit_log,
                "records": records,
                "digest": pipeline.audit.digest(),
            }
    return summary


def stream_table(bus: StreamBus, table, chunk_events: int) -> int:
    """Publish one EventTable's rows as bounded runs; returns events.

    A single-run table (a shard table: one row range of its shard's bank
    columns) publishes ranges of that run's column set, so nothing is
    consolidated per table; other tables publish their consolidated
    columns.  Either way run ``k`` covers the table's rows
    ``[k * chunk_events, (k + 1) * chunk_events)``, with the table as
    its source.
    """
    length = len(table)
    if length == 0:
        return 0
    runs = table.runs()
    if len(runs) == 1:
        columns, offset, _stop = runs[0]
    else:
        columns, offset = {name: table.column(name) for name in COLUMNS}, 0
    for start in range(offset, offset + length, chunk_events):
        bus.publish(table, columns, start, min(start + chunk_events, offset + length))
    return length


# -- mode 1: tap a running simulation ---------------------------------------


def watch_simulation(
    config=None,
    options: Optional[WatchOptions] = None,
    say: Callable[[str], None] = print,
) -> dict:
    """Simulate one window with the stream tap attached, snapshotting live."""
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments.context import ExperimentConfig, _WINDOWS
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.engine import SimulationConfig, run_simulation
    from repro.sim.rng import RngHub

    config = config or ExperimentConfig()
    options = options or WatchOptions()
    window = _WINDOWS[config.year]
    hub = RngHub(config.seed)
    deployment = build_full_deployment(
        hub, num_telescope_slash24s=config.telescope_slash24s
    )
    population = build_population(PopulationConfig(year=config.year, scale=config.scale))
    bus, analyzer, printer = _pipeline(
        window.hours, options, say, leak_experiment=deployment.leak_experiment
    )
    say(f"watching a live simulation: {len(population)} campaigns, "
        f"{len(deployment.honeypots)} vantage points, seed {config.seed}")
    started = time.perf_counter()
    run_simulation(
        deployment,
        population,
        SimulationConfig(seed=config.seed, window=window),
        tap=bus.publish,
    )
    bus.close()
    elapsed = time.perf_counter() - started
    printer.emit(final=True)  # the final snapshot always renders
    return _summary(bus, analyzer, printer, elapsed)


# -- mode 2: attach to an orchestrate spill directory -----------------------


def watch_run_dir(
    run_dir: Union[str, Path],
    options: Optional[WatchOptions] = None,
    say: Callable[[str], None] = print,
    follow_seconds: float = 0.0,
    poll_seconds: float = 0.5,
) -> dict:
    """Stream an orchestrated run's spilled shards through the pipeline.

    Completed shards (manifest present) are streamed in shard order;
    with ``follow_seconds > 0`` the directory is re-polled for newly
    completed shards until the deadline passes, so the watcher can run
    alongside a live ``orchestrate``.  The pipeline is built when the
    first completed shard appears, for the run configuration that
    shard's manifest carries (``orchestrate`` writes ``run.json`` only
    after the merge, so it is never read here).
    """
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments.context import ExperimentConfig, _WINDOWS
    from repro.io.shards import load_shard_tables, read_manifest
    from repro.sim.rng import RngHub

    run_dir = Path(run_dir)
    options = options or WatchOptions()
    bus = analyzer = printer = None

    def _attach(manifest: dict) -> tuple[StreamBus, StreamAnalyzer, SnapshotPrinter]:
        config = ExperimentConfig(**manifest["config"])
        # The deployment rebuild is deterministic per seed; it supplies
        # the leak-experiment geometry the alarms need (no event data is
        # read from it — everything streamed comes from the shards).
        deployment = build_full_deployment(
            RngHub(config.seed), num_telescope_slash24s=config.telescope_slash24s
        )
        return _pipeline(_WINDOWS[config.year].hours, options, say,
                         leak_experiment=deployment.leak_experiment)

    processed: set[str] = set()
    abandoned: set[str] = set()
    attempts: dict[str, int] = {}
    retry_at: dict[str, float] = {}
    started = time.perf_counter()
    deadline = started + max(0.0, follow_seconds)

    def _resolve_shard(shard_path: Path) -> dict:
        """Load a shard and force every streamed bank to resolve, once.

        A shard copied or crashed mid-write can carry a manifest while
        its column banks are truncated; resolving everything up front
        makes such a shard fail *here*, before a single chunk has been
        published, so a retry never double-streams rows.  Every table
        of a shard is a row range of the same bank columns.
        """
        tables = load_shard_tables(shard_path)
        banks = {id(columns): columns for table in tables.values()
                 for columns, _start, _stop in table.runs()}
        for columns in banks.values():
            for name in COLUMNS:
                columns[name]
        return tables

    def _sweep() -> int:
        nonlocal bus, analyzer, printer
        streamed = 0
        for shard_path in sorted(run_dir.glob("shard-*")):
            name = shard_path.name
            if name in processed or name in abandoned or not shard_path.is_dir():
                continue
            if time.perf_counter() < retry_at.get(name, 0.0):
                continue  # backing off a previously unreadable shard
            manifest = read_manifest(shard_path)
            if manifest is None:
                continue  # still being written
            try:
                tables = _resolve_shard(shard_path)
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile) as error:
                # Manifest present but banks unreadable: the shard is
                # in flight (or damaged).  Retry with bounded backoff;
                # give up on it — without raising — after enough tries.
                count = attempts.get(name, 0) + 1
                attempts[name] = count
                if count >= _MAX_SHARD_ATTEMPTS:
                    abandoned.add(name)
                    say(f"abandoning {name}: unreadable after "
                        f"{count} attempt(s) ({error})")
                else:
                    backoff = min(
                        max(poll_seconds, 0.05) * (2 ** (count - 1)),
                        _MAX_SHARD_BACKOFF,
                    )
                    retry_at[name] = time.perf_counter() + backoff
                    say(f"{name} not readable yet ({error}); "
                        f"retrying in {backoff:.2f}s")
                continue
            processed.add(name)
            if bus is None:
                bus, analyzer, printer = _attach(manifest)
            say(f"streaming {name} "
                f"({sum(len(t) for t in tables.values()):,} events)")
            for vantage_id in sorted(tables):
                streamed += stream_table(bus, tables[vantage_id], options.chunk_events)
        return streamed

    _sweep()
    while time.perf_counter() < deadline:
        time.sleep(poll_seconds)
        _sweep()
    if not processed:
        raise FileNotFoundError(f"no completed shards under {run_dir}")
    bus.close()
    elapsed = time.perf_counter() - started
    printer.emit(final=True)
    summary = _summary(bus, analyzer, printer, elapsed)
    summary["shards"] = len(processed)
    return summary


# -- mode 3: attach to a live honeypot fleet --------------------------------


def watch_live(
    services: dict,
    duration: float = 30.0,
    interval: float = 5.0,
    host: str = "127.0.0.1",
    options: Optional[WatchOptions] = None,
    say: Callable[[str], None] = print,
    honeypot_kwargs: Optional[dict] = None,
) -> dict:
    """Serve live honeypots with the stream attached; snapshot on a
    wall-clock cadence.  Returns the summary dict (plus bound ports)."""
    import asyncio

    from repro.honeypots.live.server import LiveHoneypot

    options = options or WatchOptions()
    # Live timestamps are hours since start; one window hour per wall
    # hour of serving, minimum one.
    hours = max(1, int(np.ceil(duration / 3600.0)))
    bus, analyzer, printer = _pipeline(hours, options, say)

    async def _serve() -> dict:
        honeypot = LiveHoneypot(
            host=host, services=services, on_event=bus.event_tap(),
            **(honeypot_kwargs or {}),
        )
        async with honeypot:
            bound = ", ".join(
                f"{host}:{actual} ({type(services[requested]).__name__})"
                for requested, actual in honeypot.bound_ports.items()
            )
            say(f"watching live fleet on {bound} for {duration:.0f}s "
                f"(snapshot every {interval:.0f}s)")
            deadline = asyncio.get_running_loop().time() + duration
            while True:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                await asyncio.sleep(min(interval, max(remaining, 0.0)))
                bus.flush()
                if options.max_snapshots and (
                    printer.snapshots_rendered >= options.max_snapshots
                ):
                    continue
                printer.emit()
            await honeypot.stop()
        bus.close()
        return {"bound_ports": dict(honeypot.bound_ports),
                "rejected_connections": honeypot.rejected_connections}

    started = time.perf_counter()
    extra = asyncio.run(_serve())
    elapsed = time.perf_counter() - started
    printer.emit(final=True)
    summary = _summary(bus, analyzer, printer, elapsed)
    summary.update(extra)
    return summary
