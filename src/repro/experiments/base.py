"""Common experiment-driver scaffolding and the map-reduce protocol.

Hot analyses run *shard-wise*: the orchestrator's merged dataset keeps
its per-shard table views (:class:`~repro.io.lazy.ShardedEventTable`
parts), and a driver that can express itself as mergeable partial
aggregates maps over each shard independently, then reduces.  The
contract mirrors classic map-reduce:

* ``map_shard(view) -> partial`` — compute a partial aggregate from one
  :class:`ShardView` (one shard's vantage tables).  Partials must be
  picklable (sets, dicts, numpy arrays) when a process pool is in play.
* ``reduce(partials) -> result`` — merge the per-shard partials.  For
  order-sensitive merges (first-occurrence semantics), partials carry
  ``(vantage position, shard position, row)`` sort keys; reducing by
  minimum key reproduces the merged row order exactly, which is how
  shard-wise results stay bit-identical to the single-process path.

:func:`run_shard_wise` executes the maps — in-process when the dataset
is unsharded (a single view over ``dataset.tables`` keeps one code
path), across the existing fork pool when the dataset has multiple
shards, a worker budget, and we are not already inside a daemonic pool
worker (the experiment scheduler's pool workers cannot spawn children).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.experiments.context import ExperimentConfig, ExperimentContext, get_context

__all__ = [
    "ExperimentOutput",
    "resolve_context",
    "ShardView",
    "shard_views",
    "run_shard_wise",
]


@dataclass
class ExperimentOutput:
    """The result of one experiment driver.

    ``data`` holds the structured result (rows/series) so tests and
    benchmarks can assert on it; ``text`` is the rendered table the
    driver prints, mirroring the paper's presentation.
    """

    experiment_id: str
    title: str
    text: str
    data: Any

    def render(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


def resolve_context(
    context: Optional[ExperimentContext] = None, year: int = 2021
) -> ExperimentContext:
    """Use the provided context or build the default one for ``year``."""
    if context is not None:
        return context
    return get_context(ExperimentConfig(year=year))


# ----------------------------------------------------------------------
# map-reduce over shards
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardView:
    """One shard's slice of a merged dataset.

    ``tables`` maps vantage id → that shard's rows for the vantage (a
    lazy, memory-mapped :class:`~repro.io.table.EventTable`); ``order``
    maps vantage id → the vantage's position in the merged dataset, so
    order-sensitive reducers can build global sort keys
    ``(order[vantage_id], view.index, row)``.
    """

    index: int
    tables: Mapping[str, Any]
    order: Mapping[str, int]


def shard_views(dataset) -> list[ShardView]:
    """The dataset's shard views (a single whole-dataset view when
    unsharded, so mappers never special-case)."""
    order = {vantage_id: position
             for position, vantage_id in enumerate(dataset.tables)}
    shard_tables = getattr(dataset, "shard_tables", None)
    if shard_tables:
        return [ShardView(index, tables, order)
                for index, tables in enumerate(shard_tables)]
    return [ShardView(0, dataset.tables, order)]


#: Set in the parent immediately before the map pool forks (the same
#: copy-on-write idiom the experiment scheduler uses); workers read it.
_MAP_STATE: Optional[tuple[Callable[[ShardView], Any], Sequence[ShardView]]] = None


def _run_map(index: int) -> Any:
    map_shard, views = _MAP_STATE
    return map_shard(views[index])


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True


def run_shard_wise(
    map_shard: Callable[[ShardView], Any],
    reduce: Callable[[Sequence[Any]], Any],
    dataset,
) -> Any:
    """Execute ``map_shard`` over every shard view, then ``reduce``.

    Maps fan out across a fork pool when the dataset carries multiple
    shards and a ``map_workers`` budget > 1; otherwise they run
    in-process (which is also the nested-pool guard: scheduler pool
    workers are daemonic and cannot fork children of their own).
    """
    global _MAP_STATE
    views = shard_views(dataset)
    workers = int(getattr(dataset, "map_workers", 1) or 1)
    use_pool = (
        len(views) > 1
        and workers > 1
        and _fork_available()
        and not multiprocessing.current_process().daemon
    )
    if use_pool:
        _MAP_STATE = (map_shard, views)
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=min(workers, len(views))) as pool:
                partials = pool.map(_run_map, range(len(views)))
        finally:
            _MAP_STATE = None
    else:
        partials = [map_shard(view) for view in views]
    return reduce(partials)
