"""Cached experiment scheduling over a merged dataset.

The paper's 19 table/figure analyses all read one shared dataset; this
scheduler runs their drivers with two production affordances:

* **Content-addressed result cache** — each result is stored under a key
  derived from (dataset digest, driver id, params).  Re-running after a
  code-free config tweak, or re-invoking with ``--resume``, only
  recomputes drivers whose inputs actually changed; everything else is a
  cache hit served from disk.
* **Process-pool execution** — drivers are independent given the
  context, so cache misses run on a pool of forked workers that inherit
  the merged dataset by copy-on-write (no context pickling).  On
  platforms without ``fork`` the scheduler falls back to in-process
  sequential execution.

Cached outputs are pickled :class:`~repro.experiments.base.ExperimentOutput`
objects stored with their full key (:func:`store_cached_value`), so
``data`` (the structured rows tests assert on) survives the round-trip,
not just the rendered text.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import ExperimentOutput
from repro.experiments.context import ExperimentContext

__all__ = [
    "ScheduledExperiment",
    "run_experiments",
    "cache_key",
    "experiments_for_year",
    "load_cached_value",
    "store_cached_value",
]

#: Set in the parent immediately before the pool forks; workers read it.
_POOL_CONTEXT: Optional[ExperimentContext] = None


@dataclass
class ScheduledExperiment:
    """One scheduled driver run: its output plus how it was produced."""

    experiment_id: str
    output: ExperimentOutput
    cached: bool
    seconds: float
    cache_key: str


def experiments_for_year(year: int) -> list[str]:
    """Driver ids that analyze ``year``'s population (scheduler default)."""
    from repro.cli import EXPERIMENT_YEARS

    return [
        experiment_id
        for experiment_id in ALL_EXPERIMENTS
        if EXPERIMENT_YEARS.get(experiment_id, year) == year
    ]


def cache_key(dataset_digest: str, experiment_id: str, params: Optional[dict] = None) -> str:
    """Content address of one (dataset, driver, params) result."""
    payload = json.dumps(
        {
            "dataset": dataset_digest,
            "experiment": experiment_id,
            "params": params or {},
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: Path, experiment_id: str, key: str) -> Path:
    return cache_dir / f"{experiment_id}-{key[:16]}.pkl"


def load_cached_value(
    cache_dir: Union[str, Path, None], name: str, key: str
):
    """Fetch one content-addressed pickled value, or ``None`` on any miss.

    Experiment outputs are stored this way, and so are other artifacts
    derived from a dataset digest (e.g. X3's per-year headline
    metrics).  The stored record carries its full key, so the truncated
    key in the file name can never serve a colliding entry.
    """
    if cache_dir is None:
        return None
    path = _cache_path(Path(cache_dir), name, key)
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        return None
    if not isinstance(record, dict) or record.get("key") != key:
        return None
    return record.get("value")


def store_cached_value(
    cache_dir: Union[str, Path], name: str, key: str, value
) -> None:
    """Store one content-addressed pickled value (atomic replace)."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, name, key)
    scratch = path.with_suffix(".tmp")
    with open(scratch, "wb") as handle:
        pickle.dump({"key": key, "value": value}, handle,
                    protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(scratch, path)


def _run_one(experiment_id: str) -> tuple[str, float, ExperimentOutput]:
    """Pool worker body: run one driver against the inherited context."""
    started = time.perf_counter()
    output = ALL_EXPERIMENTS[experiment_id](_POOL_CONTEXT)
    return experiment_id, time.perf_counter() - started, output


def run_experiments(
    context: ExperimentContext,
    dataset_digest: str,
    experiment_ids: Optional[Sequence[str]] = None,
    cache_dir: Union[str, Path, None] = None,
    workers: int = 1,
    params: Optional[dict] = None,
    say: Optional[Callable[[str], None]] = None,
) -> list[ScheduledExperiment]:
    """Run drivers over ``context``, serving unchanged ones from cache.

    Results come back in the requested order regardless of completion
    order.  ``cache_dir=None`` disables caching (every driver runs).
    """
    global _POOL_CONTEXT
    say = say or (lambda message: None)
    if experiment_ids is None:
        experiment_ids = experiments_for_year(context.config.year)
    unknown = [e for e in experiment_ids if e not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    results: dict[str, ScheduledExperiment] = {}
    pending: list[str] = []
    keys = {
        experiment_id: cache_key(dataset_digest, experiment_id, params)
        for experiment_id in experiment_ids
    }
    for experiment_id in experiment_ids:
        if cache_dir is not None:
            cached = load_cached_value(cache_dir, experiment_id, keys[experiment_id])
            if cached is not None:
                results[experiment_id] = ScheduledExperiment(
                    experiment_id, cached, True, 0.0, keys[experiment_id]
                )
                say(f"{experiment_id} [cached]")
                continue
        pending.append(experiment_id)

    if pending:
        use_pool = workers > 1 and len(pending) > 1 and _fork_available()
        if use_pool:
            # Set before the first submit forks the workers.  They are
            # not daemonic, so a driver may start a pool of its own (X3
            # orchestrates its off-year runs).
            _POOL_CONTEXT = context
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    mp_context=multiprocessing.get_context("fork"),
                ) as pool:
                    outcomes = list(pool.map(_run_one, pending))
            finally:
                _POOL_CONTEXT = None
        else:
            _POOL_CONTEXT = context
            try:
                outcomes = [_run_one(experiment_id) for experiment_id in pending]
            finally:
                _POOL_CONTEXT = None
        for experiment_id, seconds, output in outcomes:
            key = keys[experiment_id]
            if cache_dir is not None:
                store_cached_value(cache_dir, experiment_id, key, output)
            results[experiment_id] = ScheduledExperiment(
                experiment_id, output, False, seconds, key
            )
            say(f"{experiment_id} computed in {seconds:.2f}s")

    return [results[experiment_id] for experiment_id in experiment_ids]


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True
