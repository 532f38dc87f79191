"""The repository benchmark: three user paths, end to end and per layer.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 40 --trace 0

Workloads (configured in ``perfbench/design.json``):

* ``reproduce`` — ``cloudwatching run``: simulate a 2021 week at scale
  1.0, build the dataset, run and render 16 experiments, in-process.
* ``sharded`` — the operator path at scale 0.15: ``orchestrate`` with 2
  workers, ``watch --run-dir``, ``respond``, then ``serve --run-dir`` as
  its own process under an open-loop query stream.
* ``live`` — ``serve --simulate --incidents`` at scale 0.15 as its own
  process, polled by 2 closed-loop clients while it ingests.

Every program process is a fresh interpreter started from ``src/``.
A run makes several passes; ``result_s`` is the median pass and
``setup_s`` the median set-up.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` one untraced and one traced pass run, and it holds the
per-layer metrics (span self times, call counts, counters) plus the
tracing overhead.  The line before it is a record of the run: machine,
versions, source revision, seed, and every detail measured.  Output
checks that miss count as failed operations and make the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import tracer  # noqa: E402

#: Every run ends (or gives up) within this many seconds of its start.
RUN_DEADLINE_S = 170.0
#: Passes a run makes at least, so that its median has a middle.
MIN_PASSES = 3
#: Seconds a finishing process or a single HTTP request may take.
WAIT_S = 30.0
READY = re.compile(r"serving .* on http://([0-9.]+):(\d+)")
CHARACTERISTICS = ("as", "username", "password", "payload")


class BenchError(Exception):
    """The benchmark itself cannot go on (missing source, crashed child)."""


# -- small helpers -------------------------------------------------------------


def percentile(samples, q: float) -> tuple[float, float, int]:
    """(value, percentile used, n): the highest percentile at most ``q``
    that has at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n == 0:
        return 0.0, q, 0
    used = min(q, max(0.5, 1.0 - 10.0 / n))
    ordered = sorted(samples)
    index = min(n - 1, max(0, math.ceil(used * n) - 1))
    return float(ordered[index]), used, n


def latency_figures(prefix: str, latencies: list) -> dict:
    """Median and tail percentile of ``latencies``, with the sample count."""
    p50, _, n = percentile(latencies, 0.5)
    p99, used, _ = percentile(latencies, 0.99)
    return {f"{prefix}_p50_ms": p50, f"{prefix}_p99_ms": p99,
            f"{prefix}_p99_percentile": used, f"{prefix}_samples": n}


def dotted(ip: int) -> str:
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a running process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def http_get(port: int, target: str) -> tuple[int, bytes]:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{target}")
    try:
        with urllib.request.urlopen(request, timeout=WAIT_S) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def source_revision() -> dict:
    """Git commit when the checkout is a repository, plus a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        **source_revision(),
    }


def golden_key(workload: str, config: dict) -> str:
    return f"{workload}/{config['year']}/{config['scale']}/{config['telescope']}"


def load_design() -> dict:
    """design.json, with BENCHMARK.json's metric lists under "benchmark"."""
    with open(HERE / "design.json", "r", encoding="utf-8") as handle:
        design = json.load(handle)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        design["benchmark"] = json.load(handle)
    return design


# -- processes -----------------------------------------------------------------


class Process:
    """A program process whose stdout lines are read with a deadline."""

    def __init__(self, argv: list, env: dict, log_path: Path) -> None:
        self.log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        self.buffer = b""

    def read_line(self, deadline: float) -> str:
        while b"\n" not in self.buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"timed out waiting for {self.proc.args[1]}")
            if not self.selector.select(remaining):
                continue
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise BenchError(
                    f"{self.proc.args[1]} exited early (code {self.proc.wait()})"
                )
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode("utf-8", errors="replace")

    def wait_for(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.perf_counter() + timeout
        while True:
            line = self.read_line(deadline)
            if line.startswith(prefix):
                return line

    def wait_for_match(self, pattern, timeout: float):
        """The match of the first stdout line matching ``pattern``."""
        deadline = time.perf_counter() + timeout
        while True:
            match = pattern.match(self.read_line(deadline))
            if match:
                return match

    def exit_code(self) -> int:
        """Wait for a process that is finishing on its own."""
        try:
            self.proc.wait(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.close()

    def interrupt(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                self.proc.kill()
        self.proc.wait()

    def close(self) -> int:
        if self.proc.poll() is None:
            self.kill()
        code = self.proc.wait()
        self.selector.close()
        self.proc.stdout.close()
        self.log.close()
        return code


# -- one run -------------------------------------------------------------------


class Bench:
    def __init__(self, args, design: dict, golden: dict) -> None:
        self.args = args
        self.design = design
        self.workload = design["workloads"][args.workload]
        self.config = dict(self.workload["config"])
        if args.tiny:
            self.config.update(self.workload.get("tiny", {}))
        self.pinned = golden.get("pinned", {})
        self.work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.processes: list[Process] = []
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "TMPDIR": str(self.work / "tmp"),
            "CLOUDWATCHING_RUN_CACHE": str(self.work / "run-cache"),
            "CLOUDWATCHING_BENCH_JSON": str(self.work / "bench.json"),
        })
        self.env.pop("PERFBENCH_TRACE", None)
        self.counter = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def remaining(self) -> float:
        """Seconds left before the run's deadline (at least one)."""
        return max(1.0, self.deadline - time.perf_counter())

    def golden(self, workload: str) -> dict:
        """Values pinned for this seed, for ``workload`` at this run's config."""
        key = golden_key(workload, self.config)
        return self.pinned.get(key, {}).get(str(self.args.seed), {})

    # -- accounting --

    def op(self, ok: bool, what: str, count: int = 1, failed: int = None) -> bool:
        self.attempted += count
        bad = (0 if ok else count) if failed is None else failed
        self.failed += bad
        if bad:
            self.failures.append(what)
        return not bad

    def check(self, ok: bool, what: str) -> bool:
        """An output check tied to no single operation: one operation."""
        return self.op(ok, what)

    # -- processes --

    def _name(self, stem: str) -> Path:
        self.counter += 1
        return self.work / f"{self.counter:02d}-{stem}"

    def start(self, argv: list, stem: str, trace_path=None) -> Process:
        env = dict(self.env)
        if trace_path is not None:
            env["PERFBENCH_TRACE"] = str(trace_path)
        process = Process([sys.executable, *argv], env, self._name(stem + ".log"))
        self.processes.append(process)
        return process

    def run_child(self, spec: dict, stem: str) -> tuple[float, dict]:
        """(set-up seconds, result) of one ``child.py`` job."""
        spec_path = self._name(stem + ".json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        process = self.start([str(HERE / "child.py"), str(spec_path)], stem)
        try:
            process.wait_for("READY", self.remaining())
            setup = time.perf_counter() - process.started
            line = process.wait_for("RESULT ", self.remaining())
            result = json.loads(line[len("RESULT "):])
        except BaseException:
            process.close()
            raise
        code = process.exit_code()
        if code != 0:
            raise BenchError(f"{stem} exited with code {code}")
        return setup, result

    def start_server(self, argv: list, stem: str, trace_path=None) -> tuple[Process, int, float]:
        process = self.start([str(HERE / "launch.py"), "serve", *argv], stem, trace_path)
        match = process.wait_for_match(READY, self.remaining())
        return process, int(match.group(2)), time.perf_counter() - process.started

    def stop_server(self, process: Process, stem: str) -> float:
        peak = vm_hwm_mb(process.proc.pid)
        code = process.interrupt()
        self.check(code == 0, f"{stem}: server exited with code {code}")
        return peak

    def cleanup(self) -> None:
        for process in self.processes:
            if process.proc.poll() is None:
                process.kill()
            if not process.log.closed:
                process.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- workloads --

    def passes(self) -> int:
        return max(1, round(self.args.seconds / self.workload["seconds_per_pass"]))

    def sim_args(self) -> list:
        config = self.config
        return ["--year", str(config["year"]), "--scale", str(config["scale"]),
                "--telescope", str(config["telescope"]), "--seed", str(self.args.seed)]

    def child_spec(self, job: str, trace_path=None, **extra) -> dict:
        config = self.config
        return {"job": job, "year": config["year"], "scale": config["scale"],
                "telescope": config["telescope"], "seed": self.args.seed,
                "trace": str(trace_path) if trace_path else None, **extra}


# -- reproduce -------------------------------------------------------------------


def reproduce_pass(bench: Bench, trace_path=None) -> dict:
    experiments = bench.config["experiments"]
    setup, result = bench.run_child(
        bench.child_spec("reproduce", trace_path, experiments=experiments), "reproduce"
    )
    pinned = bench.golden("reproduce")
    for experiment_id in experiments:
        digest = result["digests"].get(experiment_id)
        want = pinned.get(experiment_id)
        bench.op(digest is not None and (want is None or digest == want),
                 f"reproduce: {experiment_id} output digest {str(digest)[:12]} "
                 f"!= pinned {str(want)[:12]}")
    bench.op(result["sim_events"] == result["dataset_rows"],
             f"reproduce: simulated {result['sim_events']} rows but the dataset "
             f"holds {result['dataset_rows']}")
    return {
        "setup_s": setup,
        "result_s": result["reproduce_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "detail": {"reproduce_s": result["reproduce_s"],
                   "simulate_s": result["simulate_s"],
                   "sim_events": result["sim_events"],
                   "digests": result["digests"]},
        "dumps": [trace_path] if trace_path else [],
    }


# -- sharded -------------------------------------------------------------------


def rundir_mix(vantages: list, ips: list, load: dict, rng: random.Random):
    """(hot targets, tail sampler) for the run-dir query stream.

    The hot targets are ``load["hot"]`` with the busiest vantage filled
    in; the tail picks one of four families uniformly, over keys that
    outnumber the server's response cache (``design.json`` has the basis).
    """
    hot = [target.format(busiest=vantages[0]) for target in load["hot"]]
    max_k = load["tail_max_k"]
    families = (
        lambda: (f"/top?vantage={rng.choice(vantages)}"
                 f"&characteristic={rng.choice(CHARACTERISTICS)}&k={rng.randint(1, max_k)}"),
        lambda: f"/ip?ip={dotted(rng.choice(ips))}",
        lambda: f"/volumes?vantage={rng.choice(vantages)}",
        lambda: f"/cardinality?vantage={rng.choice(vantages)}",
    )
    return hot, lambda: rng.choice(families)()


def rundir_schedule(hot: list, tail, load: dict, rate: float, seconds: float,
                    rng: random.Random) -> list:
    schedule = []
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= seconds:
            return schedule
        target = rng.choice(hot) if rng.random() < load["hot_share"] else tail()
        schedule.append((offset, target))


def answered(bench: Bench, report: loadgen.LoadReport, what: str) -> list:
    """Account one batch of queries; returns latencies of the good ones."""
    bad = [a for a in report.answers if a.status != 200]
    bench.op(not bad and not report.lost, f"{what}: {len(bad)} non-200 "
             f"answer(s), {len(report.lost)} lost", count=report.sent,
             failed=len(bad) + len(report.lost))
    return [a.latency_ms for a in report.answers if a.status == 200]


def sharded_spec(bench: Bench, trace_path=None, expect: bool = False) -> dict:
    """A ``child.py`` sharded job writing into a fresh run dir."""
    run_dir = bench.work / f"run-{bench.counter:02d}"
    return bench.child_spec("sharded", trace_path, run_dir=str(run_dir), work=str(bench.work),
                            workers=bench.workload["load"]["workers"], expect=expect)


def sharded_batch(bench: Bench, trace_path=None, expect: bool = False) -> dict:
    """orchestrate -> watch -> respond in one fresh interpreter, checked.

    With ``expect`` the job also builds the in-process reference answers
    that served bodies are checked against; a traced batch never does, so
    that it records the workload's calls and nothing else.
    """
    spec = sharded_spec(bench, trace_path, expect=expect)
    setup, result = bench.run_child(spec, "sharded")
    collect, watch, respond = result["collect"], result["watch"], result["respond"]
    total = collect["run_json_events"]
    bench.op(collect["coverage"] == 1.0 and not collect["failures"]
             and collect["shards_complete"] == list(range(collect["num_shards"])),
             f"collect: coverage {collect['coverage']}, failed shards {collect['failures']}")
    bench.check(collect["merged_rows"] == total,
                f"collect: run.json total {total} != merged rows {collect['merged_rows']}")
    bench.op(watch["events"] == total, f"watch: {watch['events']} events, run.json {total}")
    bench.op(watch["dropped_events"] == 0, "watch: dropped events",
             count=watch["events"], failed=watch["dropped_events"])
    pinned = bench.golden("sharded")
    bench.op(respond["load_rows"] == total
             and respond["audit_digest"] == pinned.get("audit_digest", respond["audit_digest"])
             and total == pinned.get("events", total),
             f"respond: audit digest {respond['audit_digest'][:12]} / {total} events "
             f"vs pinned {str(pinned.get('audit_digest'))[:12]} / {pinned.get('events')}")
    result.update(setup_s=setup, run_dir=Path(spec["run_dir"]),
                  result_s=result["collect_s"] + result["watch_s"] + result["respond_s"])
    return result


def sharded_serve(bench: Bench, batch: dict, trace_path=None, ladder: bool = False) -> dict:
    """serve --run-dir over ``batch``'s run dir under the open-loop stream."""
    load = bench.workload["load"]
    total = batch["collect"]["run_json_events"]
    process, port, setup = bench.start_server(
        ["--run-dir", str(batch["run_dir"]), "--port", "0"], "serve-run-dir", trace_path)
    rng = random.Random(f"{bench.args.seed}/sharded/queries")
    hot, tail = rundir_mix(batch["vantages"], batch["ips"], load, rng)
    detail = {"server_setup_s": setup}
    try:
        # Warm-up: every memoized counter, then every hot answer, once;
        # the hot answers go last so the response cache still holds them.
        last = list(dict.fromkeys([*batch["check_targets"], *hot]))
        counters = [f"/top?vantage={v}&characteristic={c}&k=3"
                    for v in batch["vantages"] for c in CHARACTERISTICS]
        queue = iter([t for t in counters if t not in set(last)] + last)
        started = time.perf_counter()
        report = loadgen.closed_loop("127.0.0.1", port, lambda _a: next(queue, None),
                                     connections=1, think_s=0.0,
                                     timeout_s=bench.remaining())
        detail["warmup_s"] = time.perf_counter() - started
        detail["warmup_sent"] = report.sent
        answered(bench, report, "run-dir warm-up")
        bodies = {a.target: a.body for a in report.answers}
        for target, body in batch["expected"].items():
            bench.op(bodies.get(target) == body.encode("utf-8"),
                     f"run-dir {target}: served body differs from in-process handle()")
        health = json.loads(bodies.get("/healthz") or b"{}")
        bench.check(health.get("events") == total,
                    f"run-dir /healthz reports {health.get('events')} events, run.json {total}")

        step_s = min(load["ladder_step_s"], 0.5) if bench.args.tiny else load["ladder_step_s"]
        if ladder:
            best = 0.0
            steps = []
            for rate in load["ladder_rps"]:
                schedule = rundir_schedule(hot, tail, load, rate, step_s, rng)
                step = loadgen.open_loop("127.0.0.1", port, schedule,
                                         connections=load["connections"])
                latencies = answered(bench, step, f"run-dir ladder {rate}/s")
                p99, _used, _n = percentile(latencies, 0.99)
                late_p99, _used, _n = percentile([late * 1000.0 for late in step.late], 0.99)
                steps.append({"rps": rate, "p99_ms": p99, "late_p99_ms": late_p99,
                              "sent": step.sent, "answered": len(latencies)})
                if p99 <= load["p99_limit_ms"] and len(latencies) == step.sent:
                    best = float(rate)
            detail["rundir_max_rps"] = best
            detail["ladder"] = steps

        seconds = bench.args.seconds * load["reference_share"]
        schedule = rundir_schedule(hot, tail, load, load["reference_rps"],
                                   min(seconds, 1.0) if bench.args.tiny else seconds, rng)
        report = loadgen.open_loop("127.0.0.1", port, schedule,
                                   connections=load["connections"])
        latencies = answered(bench, report, "run-dir reference load")
    finally:
        peak = bench.stop_server(process, "serve --run-dir")
    late_p99, _, _ = percentile([late * 1000.0 for late in report.late], 0.99)
    detail.update({
        **latency_figures("rundir", latencies), "loadgen_sent": report.sent,
        "loadgen_late_p99_ms": late_p99, "reference_rps": load["reference_rps"],
        "server_peak_rss_mb": peak,
    })
    return {"setup_s": setup, "peak_rss_mb": peak, "detail": detail}


def sharded_detail(batch: dict) -> dict:
    keys = ("collect_s", "watch_s", "respond_s", "collect", "watch", "respond")
    return {"runner_setup_s": batch["setup_s"], "runner_peak_rss_mb": batch["peak_rss_mb"],
            "events": batch["collect"]["run_json_events"], **{k: batch[k] for k in keys}}


def sharded_pass(bench: Bench, trace_path=None, ladder: bool = False) -> dict:
    """One batch and one serving phase (the unit of a traced run)."""
    child_trace = Path(str(trace_path) + ".child") if trace_path else None
    server_trace = Path(str(trace_path) + ".server") if trace_path else None
    batch = sharded_batch(bench, child_trace, expect=trace_path is None)
    serve = sharded_serve(bench, batch, server_trace, ladder)
    return {
        "result_s": batch["result_s"],
        "peak_rss_mb": max(batch["peak_rss_mb"], serve["peak_rss_mb"]),
        "detail": {**sharded_detail(batch), **serve["detail"]},
        "dumps": [p for p in (child_trace, server_trace) if p is not None],
    }


# -- live ----------------------------------------------------------------------


class LivePoller:
    """Seeded dashboard queries; notices when ingest has finished."""

    def __init__(self, load: dict, seed: int) -> None:
        self.rng = random.Random(f"{seed}/live/queries")
        self.paths = load["paths"]
        self.total = None
        self.done_at = None
        self.seen: list = []  # (answer time, events reported)

    def next_target(self, answer):
        if answer is not None:
            self.observe(answer)
        if self.total is not None:
            return None
        return self.rng.choice(self.paths)

    def observe(self, answer) -> None:
        if answer.status != 200 or answer.target not in ("/healthz", "/stats"):
            return
        body = json.loads(answer.body)
        events = int(body["events"])
        self.seen.append((answer.done, events))
        bus = body.get("bus")
        if bus and events > 0 and events == bus["published_events"] == bus["delivered_events"]:
            self.total = events
            self.done_at = min(done for done, count in self.seen if count == events)


def live_pass(bench: Bench, trace_path=None) -> dict:
    load = bench.workload["load"]
    argv = ["--simulate", "--incidents", *bench.sim_args(), "--port", "0"]
    process, port, setup = bench.start_server(argv, "serve-live", trace_path)
    ready = time.perf_counter()
    poller = LivePoller(load, bench.args.seed)
    try:
        report = loadgen.closed_loop("127.0.0.1", port, poller.next_target,
                                     connections=load["clients"],
                                     think_s=load["think_ms"] / 1000.0,
                                     timeout_s=bench.remaining())
        finished = poller.total is not None
        bench.op(finished, "live: ingest did not finish before the deadline")
        latencies = answered(bench, report, "live pollers")
        status, body = http_get(port, "/healthz")
        health = json.loads(body) if status == 200 else {}
        status, body = http_get(port, "/stats")
        stats = json.loads(body) if status == 200 else {}
    finally:
        peak = bench.stop_server(process, "serve --simulate")
    ingest_s = (poller.done_at if finished else time.perf_counter()) - ready
    bus = stats.get("bus") or {}
    events = health.get("events")
    pinned = bench.golden("sharded").get("events")
    bench.op(bus.get("dropped_events") == 0, "live: dropped events",
             count=int(bus.get("published_events", 0)) or 1,
             failed=int(bus.get("dropped_events", 1)))
    bench.check(bus.get("published_events") == bus.get("delivered_events") == events,
                f"live: published {bus.get('published_events')}, delivered "
                f"{bus.get('delivered_events')}, /healthz {events}")
    bench.check(pinned is None or events == pinned,
                f"live: /healthz total {events} != sharded total {pinned}")
    incidents = stats.get("incidents") or {}
    detail = {
        "live_ingest_s": ingest_s, **latency_figures("live", latencies), "events": events,
        "chunks": health.get("chunks"), "state_bytes": health.get("state_bytes"),
        "bus": bus, "incidents": incidents.get("incidents", 0),
        "audit_records": incidents.get("audit_records", 0), "loadgen_sent": report.sent,
    }
    return {
        "setup_s": setup,
        "result_s": ingest_s,
        "latencies_ms": latencies,
        "peak_rss_mb": peak,
        "detail": detail,
        "dumps": [trace_path] if trace_path else [],
    }


def live_setup_probe(bench: Bench) -> float:
    argv = ["--simulate", "--incidents", *bench.sim_args(), "--port", "0"]
    process, _port, setup = bench.start_server(argv, "serve-probe")
    process.close()  # set-up only: killed, since it is ingesting by now
    return setup


def runner_setup_probe(bench: Bench, spec: dict) -> float:
    """Set-up time of ``spec``'s job, which stops right after READY."""
    setup, _result = bench.run_child({**spec, "setup_only": True}, "setup")
    return setup


def rundir_setup_probe(bench: Bench, run_dir: Path) -> float:
    process, _port, setup = bench.start_server(
        ["--run-dir", str(run_dir), "--port", "0"], "serve-probe")
    process.close()
    return setup


def filled(samples: list, probe, count: int) -> list:
    """``samples`` topped up with set-up-only launches to ``count``."""
    samples = list(samples)
    while len(samples) < count:
        samples.append(probe())
    return samples


# -- metrics -------------------------------------------------------------------


def summarize(setups: list, results: list, peaks: list) -> tuple[dict, dict]:
    """End-to-end values from a run's samples: medians and peak."""
    values = {
        "setup_s": statistics.median(setups),
        "result_s": statistics.median(results),
        "peak_rss_mb": max(peaks),
    }
    return values, {"setup_samples_s": setups, "result_samples_s": results}


def run_passes(bench: Bench, one_pass) -> list:
    """``one_pass(index)`` as often as ``--seconds`` plans, stopping early
    once ``MIN_PASSES`` are done and ``--seconds`` have gone by, so that a
    slow host does not stretch the run."""
    planned = bench.passes()
    started = time.perf_counter()
    passes = []
    while len(passes) < planned and not (
            len(passes) >= MIN_PASSES
            and time.perf_counter() - started >= bench.args.seconds):
        passes.append(one_pass(len(passes)))
    return passes


def measure_reproduce(bench: Bench) -> tuple[dict, dict, list]:
    passes = run_passes(bench, lambda _index: reproduce_pass(bench))
    probe = bench.child_spec("reproduce", experiments=bench.config["experiments"])
    setups = filled([p["setup_s"] for p in passes],
                    lambda: runner_setup_probe(bench, probe),
                    bench.workload["setup_samples"])
    values, info = summarize(setups, [p["result_s"] for p in passes],
                             [p["peak_rss_mb"] for p in passes])
    info["workload_metrics"] = {"reproduce_s": values["result_s"]}
    return values, info, [p["detail"] for p in passes]


def measure_sharded(bench: Bench) -> tuple[dict, dict, list]:
    """Several batches, then one serving phase over the first run dir,
    whose batch also builds the in-process reference answers."""
    batches = run_passes(bench, lambda index: sharded_batch(bench, expect=index == 0))
    served = batches[0]
    serve = sharded_serve(bench, served)
    count = bench.workload["setup_samples"]
    runner = filled([batch["setup_s"] for batch in batches],
                    lambda: runner_setup_probe(bench, sharded_spec(bench)), count)
    server = filled([serve["setup_s"]],
                    lambda: rundir_setup_probe(bench, served["run_dir"]), count)
    values, info = summarize(
        [statistics.median(runner) + statistics.median(server)],
        [batch["result_s"] for batch in batches],
        [*(batch["peak_rss_mb"] for batch in batches), serve["peak_rss_mb"]])
    info.update(runner_setup_samples_s=runner, server_setup_samples_s=server)
    figures = serve["detail"]
    info["workload_metrics"] = {
        **{name: statistics.median(batch[name] for batch in batches)
           for name in ("collect_s", "watch_s", "respond_s")},
        "rundir_p50_ms": figures["rundir_p50_ms"], "rundir_p99_ms": figures["rundir_p99_ms"],
    }
    return values, info, [{**sharded_detail(served), **figures},
                          *map(sharded_detail, batches[1:])]


def measure_live(bench: Bench) -> tuple[dict, dict, list]:
    passes = run_passes(bench, lambda _index: live_pass(bench))
    setups = filled([p["setup_s"] for p in passes], lambda: live_setup_probe(bench),
                    bench.workload["setup_samples"])
    values, info = summarize(setups, [p["result_s"] for p in passes],
                             [p["peak_rss_mb"] for p in passes])
    # Latency pooled over every pass of the run.
    figures = latency_figures("live", [ms for p in passes for ms in p["latencies_ms"]])
    info.update(figures)
    info["workload_metrics"] = {"live_ingest_s": values["result_s"],
                                "live_p50_ms": figures["live_p50_ms"],
                                "live_p99_ms": figures["live_p99_ms"]}
    return values, info, [p["detail"] for p in passes]


MEASURE = {"reproduce": measure_reproduce, "sharded": measure_sharded, "live": measure_live}
PASSES = {"reproduce": reproduce_pass, "sharded": sharded_pass, "live": live_pass}


#: Per-layer metrics that are the summed self time of one span name.
SELF_TIMES = {
    "deployment.build_s": "deployment.build",
    "scanners.population_s": "scanners.population",
    "sim.run_s": "sim.run",
    "scanners.intent_batch_s": "scanners.intent_batch",
    "honeypots.capture_s": "honeypots.capture",
    "io.append_s": "io.append",
    "analysis.contingency_s": "analysis.contingency",
    "analysis.source_aggregates_s": "analysis.source_aggregates",
    "analysis.reputation_s": "analysis.reputation",
    "detection.alerts_s": "detection.alerts",
    "reporting.render_s": "reporting.render",
    "io.load_shards_s": "io.load_shards",
    "io.load_run_dir_s": "io.load_run_dir",
    "stream.watch_s": "stream.watch",
    "stream.consume_s": "stream.consume",
    "incident.detect_s": "incident.detect",
    "incident.consume_s": "incident.consume",
    "incident.finalize_s": "incident.finalize",
    "serve.lock_hold_s": "serve.lock_hold",
    "serve.tracker_s": "serve.tracker",
}
#: Per-layer metrics that count the calls of one span name.
CALL_COUNTS = {
    "scanners.intent_batch_calls": "scanners.intent_batch",
    "honeypots.capture_calls": "honeypots.capture",
    "io.append_calls": "io.append",
    "detection.alerts_calls": "detection.alerts",
}


def layer_metrics(bench: Bench, plain: dict, traced: dict) -> tuple[dict, dict]:
    """Every per-layer metric: spans of the traced pass, counters, and the
    workload-specific end-to-end figures of the untraced pass."""
    detail = plain["detail"]
    tdetail = traced["detail"]
    workload = bench.args.workload
    experiments = bench.design["workloads"]["reproduce"]["config"]["experiments"]
    # Span names behind a per-layer metric; only their self time counts
    # as attributed.
    reported = {*SELF_TIMES.values(), *(f"experiments.{e}" for e in experiments),
                *(f"serve.handle.{e}" for e in tracer.ENDPOINTS)}
    collect = tdetail.get("collect", {})
    profile: dict = {}
    attributed: dict = {}
    servers = []
    ingest_thread_s = 0.0
    for path in traced["dumps"]:
        dump = tracer.load(path)
        # The live ingest thread: run_simulation, then the final flush of
        # bus.close() (lock-held deliveries with no enclosing span).  Both
        # are reported spans, and every span below them is too.
        ingest_thread_s += tracer.root_seconds(dump, ("sim.run", "serve.lock_hold"))
        problems = tracer.check_spans(dump)
        bench.check(not problems, f"trace {Path(path).name}: {problems[:3]}")
        servers += dump.get("servers", [])
        for name, entry in tracer.layer_profile(dump).items():
            merged = profile.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for key in merged:
                merged[key] += entry[key]
        for phase in bench.workload["phases"]:
            root = f"phase.{phase}"
            if root not in dump["names"]:
                continue
            if phase == "collect":
                # Shard workers keep their spans, so the runner's layers
                # are OrchestratedRun.stats' timed windows.
                windows = collect["plan_s"] + collect["simulate_s"] + collect["merge_s"]
                attributed[phase] = windows / tracer.root_seconds(dump, (root,))
            else:
                attributed[phase] = tracer.attributed_share(dump, root, reported)

    def self_s(name):
        return profile.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return profile.get(name, {}).get("calls", 0)

    sim_total = profile.get("sim.run", {}).get("total_s", 0.0)
    sim_events = stream_events = 0
    if workload == "reproduce":
        sim_events = tdetail["sim_events"]
    elif workload == "sharded":
        stream_events = tdetail["watch"]["events"] + tdetail["respond"]["events"]
    else:
        sim_events = stream_events = tdetail["events"] or 0
        ingest = tdetail["live_ingest_s"]
        attributed["ingest"] = min(ingest_thread_s / ingest, 1.0) if ingest > 0 else 0.0

    values = {name: self_s(span) for name, span in SELF_TIMES.items()}
    values.update({name: calls(span) for name, span in CALL_COUNTS.items()})
    for experiment_id in experiments:
        values[f"experiments.{experiment_id}_s"] = self_s(f"experiments.{experiment_id}")
    for endpoint in tracer.ENDPOINTS:
        name = f"serve.handle.{endpoint}"
        count = calls(name)
        total = profile.get(name, {}).get("total_s", 0.0)
        values[f"serve.handle_ms.{endpoint}"] = total * 1000.0 / count if count else 0.0

    watch = tdetail.get("watch", {})
    respond = tdetail.get("respond", {})
    # Bus counters: the live server's /stats, or the watch pass's bus.
    bus = tdetail.get("bus") or watch
    chunks = calls("stream.consume")
    server = servers[0] if servers else {}
    # The warm-up sends each of its targets once, so its lookups are all
    # misses; the ratio covers the queries after it.
    lookups = (server.get("cache_hits", 0) + server.get("cache_misses", 0)
               - tdetail.get("warmup_sent", 0))
    values.update({
        "sim.events": sim_events,
        "sim.events_per_s": sim_events / sim_total if sim_total else 0.0,
        "runner.plan_s": collect.get("plan_s", 0.0),
        "runner.simulate_s": collect.get("simulate_s", 0.0),
        "runner.merge_s": collect.get("merge_s", 0.0),
        "runner.shards": collect.get("num_shards", 0),
        "runner.retries": collect.get("retries", 0),
        "io.spill_bytes": collect.get("spill_bytes", 0),
        "stream.chunks": chunks,
        "stream.events_per_chunk": stream_events / chunks if chunks else 0.0,
        "stream.state_bytes": watch.get("state_bytes", tdetail.get("state_bytes") or 0),
        "incident.incidents": respond.get("incidents", tdetail.get("incidents", 0)),
        "incident.audit_records": respond.get("audit_records", tdetail.get("audit_records", 0)),
        "serve.requests": server.get("requests_served", 0),
        "serve.cache_hit_ratio": server.get("cache_hits", 0) / lookups if lookups else 0.0,
        "stream.backpressure_flushes": bus.get("backpressure_flushes", 0),
        "stream.queue_high_water": bus.get("queue_high_water", 0),
        "stream.dropped_events": bus.get("dropped_events", 0),
        "loadgen.sent": detail.get("loadgen_sent", 0),
        "loadgen.late_p99_ms": detail.get("loadgen_late_p99_ms", 0.0),
    })
    for name in ("reproduce_s", "collect_s", "watch_s", "respond_s", "rundir_p50_ms",
                 "rundir_p99_ms", "rundir_max_rps", "live_ingest_s", "live_p50_ms",
                 "live_p99_ms"):
        values[name] = detail.get(name, 0.0)
    overhead = traced["result_s"] - plain["result_s"]
    values.update({
        "failed_ratio": bench.failed / bench.attempted if bench.attempted else 1.0,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / plain["result_s"] if plain["result_s"] else 0.0,
        "trace.attributed": min(attributed.values()) if attributed else 0.0,
    })
    return values, {"profile": profile, "attributed": attributed, "server": server}


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (perfbench/selftest.py)")
    parser.add_argument("--golden", default=str(HERE / "golden.json"),
                        help="pinned per-seed output digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    design = load_design()
    with open(args.golden, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    bench = Bench(args, design, golden)
    (bench.work / "tmp").mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   cwd=str(ROOT), env=bench.env, check=False, capture_output=True)
    units = {m["name"]: m["unit"] for m in design["benchmark"]["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in design["benchmark"]["per_layer"]})
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "config": bench.config, "env": environment(args.seed)}
    try:
        if args.trace:
            run_pass = PASSES[args.workload]
            extra = {"ladder": True} if args.workload == "sharded" else {}
            plain = run_pass(bench, **extra)
            traced = run_pass(bench, trace_path=bench.work / "trace.json")
            values, info = layer_metrics(bench, plain, traced)
            names = [m["name"] for m in design["benchmark"]["per_layer"]]
            record["trace"] = info
            record["detail"] = plain["detail"]
        else:
            values, info, details = MEASURE[args.workload](bench)
            names = [m["name"] for m in design["benchmark"]["end_to_end"]]
            info["workload_metrics"] = {
                name: {"value": value, "unit": units[name]}
                for name, value in info["workload_metrics"].items()
            }
            record["e2e"] = info
            record["detail"] = details
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        bench.cleanup()
        return 2
    except BaseException:
        bench.cleanup()
        raise
    bench.cleanup()
    record["attempted"] = bench.attempted
    record["failed"] = bench.failed
    record["failed_ratio"] = bench.failed / bench.attempted if bench.attempted else 1.0
    record["failures"] = bench.failures
    print("perfbench-record " + json.dumps(record, sort_keys=True, default=str))
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
