"""The sharded run orchestrator: dispatch, checkpoint/resume, merge.

``orchestrate`` turns one run configuration into the same
:class:`~repro.sim.engine.SimulationResult` a single-process
``run_simulation`` call would produce — but built from N worker
processes that each simulate a contiguous population shard and spill it
to disk (:mod:`repro.io.shards`).  The division of labor:

* **plan** — :func:`repro.runner.plan.plan_shards` on the deterministic
  population; the parent and every worker derive the same plan.
* **dispatch** — shards whose manifests verify against the run's config
  digest are skipped (the checkpoint/resume layer); the rest run on a
  process pool, each retried up to ``max_retries`` times before the run
  degrades to partial coverage instead of aborting.
* **merge** — *lazy and zero-copy*: each shard opens as a memory-mapped
  column bank (:mod:`repro.io.lazy`) and every vantage's capture becomes
  one :meth:`~repro.io.table.EventTable.concat` of its shard tables over
  the mapped spills, in shard order (contiguous shards → single-process
  row order).  No column data is read at merge time; telescope
  aggregates are summed from npz counters, and the parent's
  deterministic phase-1/2 state (sources, crawled engines — computed
  once at plan time and shared with fork workers copy-on-write)
  completes a full experiment context.  Analyses then run in one pass
  over the merged tables, as over an in-process simulation.

The merged dataset's identity is the ``dataset_digest``: the config
digest plus every completed shard's data-file hashes (and the identity
of any failed shards, since missing coverage changes the dataset).  The
experiment scheduler keys its result cache on it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.experiments.context import ExperimentConfig, ExperimentContext, _WINDOWS
from repro.io.shards import (
    load_shard_tables,
    merge_telescope_shard,
    read_manifest,
    shard_dir_name,
    verify_shard,
)
from repro.io.lazy import merge_shard_tables
from repro.io.table import EventTable
from repro.runner.plan import ShardPlan, config_digest, plan_shards
from repro.runner.worker import build_task, run_shard, set_fork_state

__all__ = ["OrchestratorStats", "OrchestratedRun", "orchestrate", "resolve_workers"]

#: Top-level run descriptor written into the output directory.
RUN_FILE = "run.json"


def resolve_workers(workers: Union[int, str]) -> int:
    """Resolve a worker-count request to a concrete process count.

    ``"auto"`` derives the count from the machine: one process per CPU
    minus one left for the parent (merge + dispatch), floor 1.  Anything
    else must be a positive integer and passes through unchanged.
    """
    if isinstance(workers, str):
        if workers != "auto":
            raise ValueError(f"workers must be a positive int or 'auto', not {workers!r}")
        return max(1, (os.cpu_count() or 2) - 1)
    count = int(workers)
    if count < 1:
        raise ValueError("workers must be >= 1 (or 'auto')")
    return count


@dataclass
class OrchestratorStats:
    """What one ``orchestrate`` invocation actually did."""

    num_shards: int = 0
    workers: int = 0
    skipped: int = 0
    simulated: int = 0
    retries: int = 0
    failed: int = 0
    events_total: int = 0
    plan_seconds: float = 0.0
    simulate_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class OrchestratedRun:
    """The merged result of a (possibly partial) orchestrated run."""

    config: ExperimentConfig
    out_dir: Path
    context: ExperimentContext
    dataset_digest: str
    stats: OrchestratorStats
    manifests: dict[int, dict] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """True when some shards never completed (degraded coverage)."""
        return bool(self.failures)

    def coverage(self) -> float:
        """Fraction of planned shards present in the merged dataset."""
        if not self.stats.num_shards:
            return 1.0
        return 1.0 - len(self.failures) / self.stats.num_shards


def _fork_context():
    """Prefer fork workers (cheap on Linux); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _run_pending(
    tasks: list[dict],
    workers: int,
    max_retries: int,
    say: Callable[[str], None],
) -> tuple[dict[int, dict], dict[int, str], int]:
    """Run shard tasks on a process pool with bounded per-shard retries.

    Returns (manifests by shard index, errors by shard index, retries).
    A broken pool (e.g. a worker killed outright) fails every in-flight
    future; those count as attempts and the loop rebuilds the pool for
    whatever retry budget remains.

    Submission is throttled to the machine's *available* CPUs: a pool of
    N worker processes is only fed min(N, cpus) shards at a time.  CPU
    oversubscription buys no parallelism — concurrent CPU-bound shards
    on one core just timeslice and thrash caches (measurably slower than
    running them back to back) — while the idle standby processes still
    absorb retries and give every shard a fresh address space.  On
    machines with cpus >= workers the throttle never engages.
    """
    manifests: dict[int, dict] = {}
    errors: dict[int, str] = {}
    attempts: dict[int, int] = {task["shard_index"]: 0 for task in tasks}
    retries = 0
    pending = list(tasks)
    context = _fork_context()
    inflight_cap = max(1, min(workers, _available_cpus()))
    while pending:
        round_tasks, pending = pending, []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(round_tasks)), mp_context=context
        ) as pool:
            queue = list(round_tasks)
            futures: dict = {}
            while queue or futures:
                while queue and len(futures) < inflight_cap:
                    task = queue.pop(0)
                    try:
                        futures[pool.submit(run_shard, task)] = task
                    except RuntimeError:  # BrokenProcessPool / shut-down pool
                        # Unsubmitted work is not an attempt: requeue it
                        # for the rebuilt pool.  In-flight futures still
                        # resolve (as failures) below.
                        pending.append(task)
                        pending.extend(queue)
                        queue.clear()
                if not futures:
                    continue
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    task = futures.pop(future)
                    index = task["shard_index"]
                    try:
                        manifests[index] = future.result()
                    except Exception as error:  # noqa: BLE001 - retried below
                        attempts[index] += 1
                        if attempts[index] <= max_retries:
                            retries += 1
                            say(f"shard {index} failed ({error}); retrying "
                                f"({attempts[index]}/{max_retries})")
                            pending.append(task)
                        else:
                            errors[index] = str(error)
                            say(f"shard {index} failed permanently: {error}")
                    else:
                        say(f"shard {index} complete "
                            f"({manifests[index]['events']['total']:,} events)")
    return manifests, errors, retries


def orchestrate(
    config: Optional[ExperimentConfig] = None,
    workers: Union[int, str] = 2,
    out_dir: Union[str, Path] = "orchestrate-out",
    num_shards: Optional[int] = None,
    resume: bool = False,
    max_retries: int = 2,
    quiet: bool = False,
) -> OrchestratedRun:
    """Run one sharded simulation and merge it into an experiment context.

    ``workers`` is a count or ``"auto"`` (CPU-derived, see
    :func:`resolve_workers`); the chosen count and the original request
    are both recorded in ``run.json``.  ``num_shards`` (at least 1)
    defaults to the resolved worker count.  With ``resume``, shards
    whose manifests verify (config digest, shard layout, data-file
    hashes) are not re-simulated.  Shards that exhaust their retry
    budget are dropped from the merge and reported as partial coverage
    rather than aborting the run.
    """
    from repro.analysis.dataset import AnalysisDataset
    from repro.deployment.fleet import build_full_deployment
    from repro.honeypots.base import VantageCapture
    from repro.honeypots.telescope import TelescopeCapture
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.engine import SimulationConfig, SimulationResult, Simulator
    from repro.sim.rng import RngHub

    def say(message: str) -> None:
        if not quiet:
            print(message, flush=True)

    config = config or ExperimentConfig()
    if num_shards is not None and num_shards < 1:
        raise ValueError(f"num_shards must be >= 1 (got {num_shards})")
    workers_requested = workers
    workers = resolve_workers(workers)
    if workers_requested == "auto":
        say(f"workers auto -> {workers} (cpu_count {os.cpu_count()})")
    if num_shards is None:
        num_shards = workers
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_started = time.perf_counter()
    stats = OrchestratorStats(num_shards=num_shards, workers=workers)

    # ---- plan (parent-side deterministic rebuild) ----
    started = time.perf_counter()
    hub = RngHub(config.seed)
    deployment = build_full_deployment(
        hub, num_telescope_slash24s=config.telescope_slash24s
    )
    population = build_population(PopulationConfig(year=config.year, scale=config.scale))
    digest = config_digest(config, len(population))
    plans: list[ShardPlan] = plan_shards(population, num_shards)
    # Phase-1/2 state (source allocation, engine crawl) is deterministic
    # and identical for every shard: compute it once here, let fork
    # workers inherit it copy-on-write, and reuse it again for the merge.
    simulation_config = SimulationConfig(seed=config.seed, window=_WINDOWS[config.year])
    parent = Simulator(deployment, population, simulation_config)
    source_ips = parent._allocate_sources()
    engines = parent._build_engines()
    stats.plan_seconds = time.perf_counter() - started
    say(f"planned {num_shards} shard(s) over {len(population)} campaigns "
        f"(config {digest[:12]})")

    # ---- dispatch (skip verified shards, retry failures) ----
    started = time.perf_counter()
    manifests: dict[int, dict] = {}
    tasks: list[dict] = []
    for plan in plans:
        shard_path = out_dir / shard_dir_name(plan.shard_index)
        if resume and verify_shard(
            shard_path, digest, plan.shard_index, num_shards, plan.spec_range
        ):
            manifests[plan.shard_index] = read_manifest(shard_path)
            stats.skipped += 1
            say(f"shard {plan.shard_index} already complete; skipping")
            continue
        tasks.append(
            build_task(config, plan.shard_index, num_shards,
                       plan.spec_range, str(out_dir), digest)
        )
    failures: dict[int, str] = {}
    if tasks:
        set_fork_state({
            "digest": digest,
            "deployment": deployment,
            "population": population,
            "source_ips": source_ips,
            "engines": engines,
        })
        try:
            fresh, failures, stats.retries = _run_pending(
                tasks, workers, max_retries, say
            )
        finally:
            set_fork_state(None)
        manifests.update(fresh)
        stats.simulated = len(fresh)
    stats.failed = len(failures)
    stats.simulate_seconds = time.perf_counter() - started
    if not manifests:
        raise RuntimeError("no shard completed; nothing to merge")

    # ---- merge (lazy: no column data is read here) ----
    # Shards open as memory-mapped banks; each vantage's capture becomes
    # an EventTable.concat whose runs point into the mapped spills, so
    # the merge is O(#vantages) bookkeeping regardless of event volume.
    # A merged column materializes only if an experiment asks for it.
    started = time.perf_counter()
    telescope = (
        TelescopeCapture(deployment.telescope)
        if deployment.telescope is not None
        else None
    )
    shard_tables: list[dict[str, EventTable]] = []
    for index in sorted(manifests):
        shard_path = out_dir / shard_dir_name(index)
        shard_tables.append(load_shard_tables(shard_path))
        if telescope is not None:
            merge_telescope_shard(telescope, shard_path)
    merged = merge_shard_tables(deployment.honeypots, shard_tables)
    captures: dict[str, VantageCapture] = {}
    for vantage in deployment.honeypots:
        capture = VantageCapture(vantage)
        if vantage.vantage_id in merged:
            capture.table = merged[vantage.vantage_id]
        captures[vantage.vantage_id] = capture
    result = SimulationResult(
        config=simulation_config,
        deployment=deployment,
        registry=parent.registry,
        captures=captures,
        telescope=telescope,
        engines=engines,
        population=population,
        source_ips=source_ips,
    )
    context = ExperimentContext(
        config=config,
        deployment=deployment,
        result=result,
        dataset=AnalysisDataset.from_simulation(result),
    )
    stats.events_total = result.total_events()
    stats.merge_seconds = time.perf_counter() - started
    stats.total_seconds = time.perf_counter() - run_started

    dataset_digest = _dataset_digest(digest, manifests, failures)
    run_record = {
        "format": "cloudwatching-run/1",
        "config": {
            "year": config.year,
            "scale": config.scale,
            "telescope_slash24s": config.telescope_slash24s,
            "seed": config.seed,
        },
        "config_digest": digest,
        "dataset_digest": dataset_digest,
        "num_shards": num_shards,
        "workers": workers,
        "workers_requested": workers_requested,
        "cpu_count": os.cpu_count(),
        "stats": {
            "plan_seconds": stats.plan_seconds,
            "simulate_seconds": stats.simulate_seconds,
            "merge_seconds": stats.merge_seconds,
            "total_seconds": stats.total_seconds,
            "skipped": stats.skipped,
            "simulated": stats.simulated,
            "retries": stats.retries,
        },
        "shards": {
            str(plan.shard_index): {
                "spec_range": list(plan.spec_range),
                "status": (
                    "failed" if plan.shard_index in failures else "complete"
                ),
            }
            for plan in plans
        },
        "events_total": stats.events_total,
        "coverage": 1.0 - len(failures) / num_shards,
    }
    with open(out_dir / RUN_FILE, "w", encoding="utf-8") as handle:
        json.dump(run_record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    say(f"merged {len(manifests)}/{num_shards} shard(s): "
        f"{stats.events_total:,} events in {stats.total_seconds:.2f}s"
        + (f" — PARTIAL coverage, {len(failures)} shard(s) missing"
           if failures else ""))
    return OrchestratedRun(
        config=config,
        out_dir=out_dir,
        context=context,
        dataset_digest=dataset_digest,
        stats=stats,
        manifests=manifests,
        failures=failures,
    )


def _dataset_digest(
    digest: str, manifests: dict[int, dict], failures: dict[int, str]
) -> str:
    """Content address of the merged dataset (cache key component)."""
    import hashlib

    parts = {
        "config_digest": digest,
        "shards": {
            str(index): manifests[index].get("files", {})
            for index in sorted(manifests)
        },
        "missing": sorted(failures),
    }
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True).encode("utf-8")
    ).hexdigest()
