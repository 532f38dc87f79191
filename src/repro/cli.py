"""Command-line entry point.

Subcommands::

    cloudwatching list                      # experiments available
    cloudwatching run T8 T9 --scale 0.5     # regenerate paper tables
    cloudwatching run all
    cloudwatching simulate out.ndjson.gz    # write a dataset release
    cloudwatching orchestrate --workers auto --out runs/full --resume
    cloudwatching honeypots --port 8080=http --port 2323=telnet --duration 30
    cloudwatching watch --simulate --scale 0.05     # stream a tapped sim
    cloudwatching watch --run-dir runs/full         # stream spilled shards
    cloudwatching watch --live --port 2323=telnet   # stream a live fleet
    cloudwatching serve --run-dir runs/full         # query API over a run
    cloudwatching serve --simulate --scale 0.1      # query API over live sketches
    cloudwatching lint src --format json            # invariant checker
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.experiments import ALL_EXPERIMENTS, get_context
from repro.stream.windows import MAX_TRAILING_HOURS

#: Temporal experiments run on their own year's population.
EXPERIMENT_YEARS: dict[str, int] = {
    "T12": 2020, "T13": 2020, "T16": 2020,
    "T14": 2022, "T15": 2022, "T17": 2022,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudwatching",
        description="Reproduce the tables and figures of 'Cloud Watching' (IMC 2023).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    runner = subparsers.add_parser("run", help="run one or more experiments")
    runner.add_argument("experiments", nargs="+",
                        help="experiment ids (T1..T17, F1, M1, X1..X3) or 'all'")
    runner.add_argument("--blocklist", default=None, metavar="FILE",
                        help="external blocklist file (dotted-quad IPs and "
                             "AS<number> lines) for drivers that accept one "
                             "(X1 evaluates it in place of the regional lists)")
    runner.add_argument("--output", default=None, metavar="REPORT.md",
                        help="additionally write the results as a Markdown report")
    _add_sim_args(runner)

    simulate = subparsers.add_parser(
        "simulate", help="simulate a week and write the NDJSON dataset release"
    )
    simulate.add_argument("output", help="output path (.ndjson or .ndjson.gz)")
    simulate.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    _add_sim_args(simulate)

    orchestrate = subparsers.add_parser(
        "orchestrate",
        help="sharded parallel run: simulate on worker processes, spill "
             "shards, merge, and run cached experiments",
    )
    orchestrate.add_argument("--workers", type=_workers_arg, default=2,
                             help="worker processes: a count or 'auto' "
                                  "(CPU-derived; default 2)")
    orchestrate.add_argument("--out", default="orchestrate-out", metavar="DIR",
                             help="run directory for shards, cache, and run.json")
    orchestrate.add_argument("--shards", type=_int_arg(1), default=None,
                             help="shard count (default: --workers)")
    orchestrate.add_argument("--resume", action="store_true",
                             help="skip shards whose manifests verify complete")
    orchestrate.add_argument("--max-retries", type=_int_arg(0), default=2,
                             help="per-shard retry budget before degrading "
                                  "to partial coverage (default 2)")
    orchestrate.add_argument("--experiments", nargs="*", default=None, metavar="ID",
                             help="experiment ids to schedule (default: all "
                                  "for the year; pass none to skip analysis)")
    orchestrate.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    _add_sim_args(orchestrate)

    bench = subparsers.add_parser(
        "bench", help="time the simulate→analyze pipeline, append BENCH_simulation.json"
    )
    bench.add_argument("--scale", type=float, default=1.0,
                       help="population scale factor (default 1.0, the pinned bench scale)")
    bench.add_argument("--telescope", type=int, default=16,
                       help="telescope size in /24s (default 16)")
    bench.add_argument("--seed", type=int, default=777)
    bench.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    bench.add_argument("--experiments", nargs="*", default=None, metavar="ID",
                       help="experiment ids to time (default: all for the "
                            "year; pass no values to skip analysis timing)")
    bench.add_argument("--serve", action="store_true",
                       help="benchmark the HTTP serving layer: live queries "
                            "during ingest, then sustained concurrent load "
                            "against a run-dir backend")
    bench.add_argument("--connections", type=int, default=1000,
                       help="serve bench: concurrent keep-alive clients for "
                            "the run-dir phase (default 1000)")
    bench.add_argument("--duration", type=float, default=5.0,
                       help="serve bench: seconds of sustained load (default 5)")
    bench.add_argument("--output", default=None, metavar="BENCH.json",
                       help="artifact path (default BENCH_simulation.json)")

    watch = subparsers.add_parser(
        "watch",
        help="attach the streaming pipeline to a source and render "
             "periodic snapshots (top-k sketches, rates, leak alarms)",
    )
    source = watch.add_mutually_exclusive_group()
    source.add_argument("--simulate", action="store_true",
                        help="tap a fresh simulation (default source)")
    source.add_argument("--run-dir", default=None, metavar="DIR",
                        help="stream a 'cloudwatching orchestrate' output directory")
    source.add_argument("--live", action="store_true",
                        help="serve live honeypots on loopback and stream them")
    watch.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    _add_sim_args(watch)
    watch.add_argument("--sketch-k", type=_int_arg(1), default=64,
                       help="Space-Saving capacity per characteristic (default 64)")
    watch.add_argument("--top-k", type=_int_arg(1), default=3,
                       help="categories per snapshot table (default 3, the §3.3 k)")
    watch.add_argument("--snapshot-events", type=_int_arg(0), default=25000,
                       help="snapshot every N events (0 = final only; default 25000)")
    watch.add_argument("--max-snapshots", type=_int_arg(0), default=0,
                       help="stop periodic snapshots after N (0 = unlimited)")
    watch.add_argument("--chunk-events", type=_int_arg(1), default=4096,
                       help="rows per chunk when streaming stored tables (default 4096)")
    watch.add_argument("--queue-events", type=_int_arg(1), default=65536,
                       help="bus buffer bound in events (default 65536)")
    watch.add_argument("--policy", default="backpressure",
                       choices=("backpressure", "drop"),
                       help="bus overflow policy (default backpressure)")
    watch.add_argument("--trailing-hours", type=_int_arg(1, MAX_TRAILING_HOURS), default=None,
                       help="leak-alarm trailing window in sealed hours "
                            "(default: the full observation window)")
    watch.add_argument("--follow", type=float, default=0.0, metavar="SECONDS",
                       help="run-dir source: keep polling for new shards this long")
    watch.add_argument("--port", action="append", default=[], metavar="PORT=SERVICE",
                       help="live source: e.g. 8080=http, 2323=telnet (repeatable)")
    watch.add_argument("--duration", type=float, default=30.0,
                       help="live source: seconds to serve (default 30)")
    watch.add_argument("--interval", type=_positive_arg, default=5.0,
                       help="live source: seconds between snapshots (default 5)")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--max-connections", type=int, default=0,
                       help="live source: concurrent-session cap (0 = unlimited)")
    watch.add_argument("--no-incidents", action="store_true",
                       help="disable incident detection (on by default)")
    watch.add_argument("--audit-log", default=None, metavar="FILE",
                       help="write the incident audit log (NDJSON) here at the end")
    watch.add_argument("--format", default="text", choices=("text", "json"),
                       help="snapshot rendering: tables or one JSON object "
                            "per snapshot (default text)")

    honeypots = subparsers.add_parser(
        "honeypots", help="run live honeypots on loopback and print captures"
    )
    honeypots.add_argument("--port", action="append", default=[], metavar="PORT=SERVICE",
                           help="e.g. 8080=http, 2323=telnet, 2222=ssh, 9000=raw "
                                "(repeatable; default: 8080=http 2323=telnet)")
    honeypots.add_argument("--duration", type=float, default=30.0,
                           help="seconds to serve before exiting (default 30)")
    honeypots.add_argument("--host", default="127.0.0.1")

    serve = subparsers.add_parser(
        "serve",
        help="HTTP query API over a run directory (exact batch answers) "
             "or a live tapped simulation (sketch estimates)",
    )
    serve_source = serve.add_mutually_exclusive_group()
    serve_source.add_argument("--run-dir", default=None, metavar="DIR",
                              help="serve a 'cloudwatching orchestrate' output "
                                   "directory exactly, with a content-addressed "
                                   "response cache")
    serve_source.add_argument("--simulate", action="store_true",
                              help="serve live sketch state while a tapped "
                                   "simulation streams in (default source)")
    serve.add_argument("--year", type=int, default=2021, choices=(2020, 2021, 2022))
    _add_sim_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default 0 = OS-assigned, printed at start)")
    serve.add_argument("--backlog", type=int, default=512,
                       help="listen backlog (default 512)")
    serve.add_argument("--max-connections", type=int, default=4096,
                       help="concurrent-connection cap, 503 + counted rejection "
                            "beyond it (0 = unlimited; default 4096)")
    serve.add_argument("--max-request-bytes", type=int, default=8192,
                       help="request-head byte cap (default 8192)")
    serve.add_argument("--read-timeout", type=float, default=30.0,
                       help="idle keep-alive read timeout in seconds (default 30)")
    serve.add_argument("--keepalive-requests", type=int, default=0,
                       help="requests per connection before close (0 = unlimited)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="seconds to serve before draining (0 = until interrupted)")
    serve.add_argument("--sketch-k", type=_int_arg(1), default=64,
                       help="simulate source: Space-Saving capacity (default 64)")
    serve.add_argument("--queue-events", type=_int_arg(1), default=65536,
                       help="simulate source: bus buffer bound in events (default 65536)")
    serve.add_argument("--incidents", action="store_true",
                       help="simulate source: run live incident detection and "
                            "serve /incidents and /actions (run-dir backends "
                            "always serve them, computed post hoc)")

    respond = subparsers.add_parser(
        "respond",
        help="post-hoc incident detection + runbook response over an "
             "orchestrate run directory: prints the incident census and "
             "writes the audit log / emitted blocklist",
    )
    respond.add_argument("--run-dir", required=True, metavar="DIR",
                         help="a completed 'cloudwatching orchestrate' output")
    respond.add_argument("--audit-log", default=None, metavar="FILE",
                         help="write the NDJSON audit log here")
    respond.add_argument("--blocklist-out", default=None, metavar="FILE",
                         help="write the emitted blocklist here (AS<number> "
                              "lines, the format 'run X1 --blocklist' reads)")
    respond.add_argument("--quiet-hours", type=_int_arg(1), default=12,
                         help="hours of silence before an incident resolves "
                              "(default 12)")

    lint = subparsers.add_parser(
        "lint",
        help="AST-based invariant checker: RNG/determinism/lock/columnar/"
             "exception disciplines (exit 1 on non-baselined findings)",
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)
    return parser


def _workers_arg(text: str):
    """``--workers`` value: a positive integer or the string 'auto'."""
    if text == "auto":
        return "auto"
    try:
        return _int_arg(1)(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None


def _int_arg(low: int, high: int | None = None):
    """An argparse type: an integer in ``[low, high]`` (unbounded above
    when ``high`` is None); any other value exits 2 naming the flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return integer


def _positive_arg(text: str) -> float:
    """An argparse type: a number greater than 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="population scale factor (default 0.5)")
    parser.add_argument("--telescope", type=int, default=16,
                        help="telescope size in /24s (default 16)")
    parser.add_argument("--seed", type=int, default=20230701)


def _sim_config(args: argparse.Namespace, year: int | None = None):
    """Validate the CLI's simulation arguments through the serve schema.

    Every subcommand that starts the engine goes through the same
    :class:`~repro.serve.schema.SimulationPayload` contract the API
    uses, so a bad ``--scale`` fails identically over argv and HTTP.
    Returns the validated ExperimentConfig, or None after printing the
    structured violations.
    """
    from repro.serve.schema import SchemaError, validate_simulation_config

    try:
        return validate_simulation_config(
            year=year if year is not None else getattr(args, "year", 2021),
            scale=args.scale,
            telescope_slash24s=args.telescope,
            seed=args.seed,
        )
    except SchemaError as error:
        for item in error.errors:
            print(f"error: {item['field']}: {item['message']} "
                  f"(got {item['value']!r})", file=sys.stderr)
        return None


def _experiment_description(driver) -> str:
    """One-line description of a driver: its docstring's first line, or
    the first line of its module docstring when the function has none."""
    doc = driver.__doc__
    if not doc:
        module = inspect.getmodule(driver)
        doc = module.__doc__ if module is not None else None
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def _command_list() -> int:
    for experiment_id, driver in ALL_EXPERIMENTS.items():
        print(f"{experiment_id:<4} {_experiment_description(driver)}".rstrip())
    return 0


def _command_run(args: argparse.Namespace) -> int:
    requested = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in requested if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    blocklist_path = getattr(args, "blocklist", None)
    if blocklist_path is not None:
        import inspect

        takers = [
            experiment_id for experiment_id in requested
            if "blocklist_path"
            in inspect.signature(ALL_EXPERIMENTS[experiment_id]).parameters
        ]
        if not takers:
            print("--blocklist given but none of the requested experiments "
                  "accept one (X1 does)", file=sys.stderr)
            return 2
        from repro.serve.schema import SchemaError, validate_blocklist_file

        try:
            validate_blocklist_file(blocklist_path)
        except SchemaError as error:
            for item in error.as_dict()["errors"]:
                print(f"error: {item['field']}: {item['message']}",
                      file=sys.stderr)
            return 2
    outputs = []
    for experiment_id in requested:
        year = EXPERIMENT_YEARS.get(experiment_id, 2021)
        config = _sim_config(args, year=year)
        if config is None:
            return 2
        context = get_context(config)
        started = time.perf_counter()
        driver = ALL_EXPERIMENTS[experiment_id]
        if blocklist_path is not None and experiment_id in takers:
            output = driver(context, blocklist_path=blocklist_path)
        else:
            output = driver(context)
        outputs.append(output)
        print(output.render())
        print(f"[{experiment_id} completed in "
              f"{time.perf_counter() - started:.1f}s]\n")
    if getattr(args, "output", None):
        from repro.reporting.markdown import write_markdown_report

        written = write_markdown_report(outputs, args.output)
        print(f"markdown report written to {written}")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.io.records import write_events

    config = _sim_config(args)
    if config is None:
        return 2
    context = get_context(config)
    count = write_events(args.output, context.result.events())
    print(f"wrote {count:,} events ({args.year} population, scale {args.scale}) "
          f"to {args.output}")
    return 0


def _command_orchestrate(args: argparse.Namespace) -> int:
    from repro.runner import orchestrate, run_experiments

    config = _sim_config(args)
    if config is None:
        return 2
    run = orchestrate(
        config,
        workers=args.workers,
        out_dir=args.out,
        num_shards=args.shards,
        resume=args.resume,
        max_retries=args.max_retries,
    )
    if run.partial:
        print(f"WARNING: partial coverage ({run.coverage():.0%}); "
              f"missing shards: {sorted(run.failures)}", file=sys.stderr)

    experiment_ids = args.experiments  # None = all for the year; [] = skip
    if experiment_ids is None or experiment_ids:
        scheduled = run_experiments(
            run.context,
            run.dataset_digest,
            experiment_ids=experiment_ids,
            cache_dir=run.out_dir / "cache",
            workers=args.workers,
            say=lambda message: print(message, flush=True),
        )
        for item in scheduled:
            marker = " [cached]" if item.cached else ""
            print(item.output.render())
            print(f"[{item.experiment_id}{marker}]\n")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench, run_serve_bench

    if _sim_config(args) is None:
        return 2
    if args.serve:
        run_serve_bench(
            scale=args.scale,
            telescope_slash24s=args.telescope,
            seed=args.seed,
            year=args.year,
            connections=args.connections,
            duration_seconds=args.duration,
            artifact=args.output,
        )
        return 0
    try:
        run_bench(
            scale=args.scale,
            telescope_slash24s=args.telescope,
            seed=args.seed,
            year=args.year,
            experiments=args.experiments,
            artifact=args.output,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _parse_services(specs: list[str], default: list[str]):
    """Parse repeated PORT=SERVICE flags into a services dict (or None)."""
    from repro.honeypots.live import (
        FirstPayloadService,
        HttpService,
        SshBannerService,
        TelnetService,
    )

    factories = {
        "http": HttpService,
        "telnet": TelnetService,
        "ssh": SshBannerService,
        "raw": FirstPayloadService,
    }
    services = {}
    for spec in specs or default:
        port_text, _, kind = spec.partition("=")
        if kind not in factories:
            print(f"unknown service {kind!r} (choose from {sorted(factories)})",
                  file=sys.stderr)
            return None
        services[int(port_text)] = factories[kind]()
    return services


def _command_watch(args: argparse.Namespace) -> int:
    from repro.stream.watch import (
        WatchOptions,
        watch_live,
        watch_run_dir,
        watch_simulation,
    )

    options = WatchOptions(
        sketch_k=args.sketch_k,
        top_k=args.top_k,
        chunk_events=args.chunk_events,
        snapshot_events=args.snapshot_events,
        max_snapshots=args.max_snapshots,
        max_buffered_events=args.queue_events,
        policy=args.policy,
        trailing_hours=args.trailing_hours,
        incidents=not args.no_incidents,
        audit_log=args.audit_log,
        format=args.format,
    )
    if args.run_dir:
        summary = watch_run_dir(args.run_dir, options, follow_seconds=args.follow)
    elif args.live:
        services = _parse_services(args.port, ["8080=http", "2323=telnet"])
        if services is None:
            return 2
        summary = watch_live(
            services,
            duration=args.duration,
            interval=args.interval,
            host=args.host,
            options=options,
            honeypot_kwargs={"max_connections": args.max_connections},
        )
    else:
        config = _sim_config(args)
        if config is None:
            return 2
        summary = watch_simulation(config, options)
    bus = summary["bus"]
    line = (f"watch done: {summary['events']:,} events in {summary['seconds']:.2f}s "
            f"({summary['snapshots']} snapshot(s), {bus['dropped_events']} dropped)")
    incidents = summary.get("incidents")
    if incidents is not None:
        line += (f"; {incidents['incidents']} incident(s), "
                 f"{incidents['actions']} action(s)")
    print(line)
    audit = summary.get("audit_log")
    if audit is not None:
        print(f"audit log: {audit['records']} record(s) -> {audit['path']} "
              f"(digest {audit['digest'][:12]})")
    return 0


def _command_honeypots(args: argparse.Namespace) -> int:
    import asyncio

    from repro.honeypots.live import LiveHoneypot

    services = _parse_services(args.port, ["8080=http", "2323=telnet"])
    if services is None:
        return 2

    async def _serve() -> list:
        honeypot = LiveHoneypot(host=args.host, services=services)
        async with honeypot:
            bound = ", ".join(
                f"{args.host}:{actual} ({type(services[requested]).__name__})"
                for requested, actual in honeypot.bound_ports.items()
            )
            print(f"listening on {bound} for {args.duration:.0f}s ...", flush=True)
            await asyncio.sleep(args.duration)
            await honeypot.stop()
        return honeypot.events

    events = asyncio.run(_serve())
    print(f"captured {len(events)} sessions")
    for event in events:
        summary = event.payload[:60] if event.payload else b"<no payload>"
        print(f"  port {event.dst_port} from {event.src_ip}: {summary!r} "
              f"credentials={event.credentials}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal
    import threading

    from repro.serve import QueryServer, RunDirBackend, ServeOptions

    options = ServeOptions(
        host=args.host,
        port=args.port,
        backlog=args.backlog,
        max_connections=args.max_connections,
        max_request_bytes=args.max_request_bytes,
        read_timeout=args.read_timeout,
        keepalive_requests=args.keepalive_requests,
    )

    ingest: threading.Thread | None = None
    if args.run_dir:
        try:
            backend = RunDirBackend(args.run_dir)
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        label = (f"run dir {args.run_dir} "
                 f"({len(backend.dataset.tables)} vantages, "
                 f"digest {backend.dataset_digest[:12]})")
    else:
        config = _sim_config(args)
        if config is None:
            return 2
        from repro.deployment.fleet import build_full_deployment
        from repro.experiments.context import _WINDOWS
        from repro.scanners.population import PopulationConfig, build_population
        from repro.serve.backends import build_live_pipeline, end_live_stream
        from repro.sim.engine import SimulationConfig, run_simulation
        from repro.sim.rng import RngHub

        window = _WINDOWS[config.year]
        deployment = build_full_deployment(
            RngHub(config.seed), num_telescope_slash24s=config.telescope_slash24s
        )
        population = build_population(
            PopulationConfig(year=config.year, scale=config.scale)
        )
        bus, _analyzer, _tracker, backend = build_live_pipeline(
            window.hours,
            leak_experiment=deployment.leak_experiment,
            sketch_k=args.sketch_k,
            max_buffered_events=args.queue_events,
            incidents=args.incidents,
        )

        def _ingest() -> None:
            run_simulation(
                deployment,
                population,
                SimulationConfig(seed=config.seed, window=window),
                tap=bus.publish,
            )
            end_live_stream(bus, backend)

        ingest = threading.Thread(target=_ingest, daemon=True)
        label = (f"live simulation ({len(population)} campaigns, "
                 f"scale {config.scale}, seed {config.seed})")

    drained = []  # the server's stats, once in-flight requests drained

    async def _serve():
        server = QueryServer(backend, options)
        await server.start()
        print(f"serving {label} on http://{options.host}:{server.port}", flush=True)
        if ingest is not None:
            ingest.start()
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        finally:
            await server.stop()  # graceful drain of in-flight requests
            drained.append(server.stats)

    # A process started in the background of a non-interactive shell
    # inherits SIGINT ignored; restore the default so SIGINT stops the
    # server (asyncio.run then cancels _serve, which drains).
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        if not drained:
            print("interrupted", file=sys.stderr)
            return 0
    stats = drained[0]
    print(f"served {stats.requests_served:,} request(s) over "
          f"{stats.connections_accepted:,} connection(s) "
          f"({stats.rejected_connections} rejected); drained cleanly")
    return 0


def _command_respond(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.incident.pipeline import detect_incidents
    from repro.reporting.tables import render_table
    from repro.serve.backends import load_run_dir

    try:
        config, dataset, digest = load_run_dir(args.run_dir)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    events = sum(len(t) for t in dataset.tables.values())
    print(f"responding over {args.run_dir}: {events:,} events, "
          f"seed {config.seed}, dataset digest {digest[:12]}")
    started = time.perf_counter()
    pipeline = detect_incidents(dataset, quiet_hours=args.quiet_hours)
    elapsed = time.perf_counter() - started

    by_rule: Counter = Counter()
    for incident in pipeline.store.history:
        by_rule[incident.rule] += 1
    actions_by_kind = Counter(
        record["action"] for record in pipeline.audit.actions()
    )
    print(render_table(
        ["rule", "incidents"],
        [(rule, by_rule[rule]) for rule in sorted(by_rule)],
        title="incident census",
    ))
    summary = pipeline.summary()
    line = (f"{summary['incidents']} incident(s) "
            f"({summary['resolved']} resolved), "
            f"{summary['actions']} action(s) ("
            + "/".join(f"{kind}:{count}"
                       for kind, count in sorted(actions_by_kind.items()))
            + f"), {len(pipeline.executor.blocklist)} blocklist entr"
            + ("y" if len(pipeline.executor.blocklist) == 1 else "ies")
            + f" in {elapsed:.2f}s")
    if summary["last_action"]:
        line += f"; last action: {summary['last_action']}"
    print(line)
    if args.audit_log:
        records = pipeline.audit.write(args.audit_log)
        print(f"audit log: {records} record(s) -> {args.audit_log} "
              f"(digest {pipeline.audit.digest()[:12]})")
    if args.blocklist_out:
        from repro.analysis.blocklists import write_blocklist_file

        count = write_blocklist_file(
            args.blocklist_out,
            asns=(entry.asn for entry in pipeline.executor.blocklist),
        )
        print(f"blocklist: {count} entr"
              + ("y" if count == 1 else "ies")
              + f" -> {args.blocklist_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "orchestrate":
        return _command_orchestrate(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "watch":
        return _command_watch(args)
    if args.command == "honeypots":
        return _command_honeypots(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "respond":
        return _command_respond(args)
    if args.command == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
