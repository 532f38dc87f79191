"""Common experiment-driver scaffolding.

Analyses read a dataset in one pass over ``dataset.tables``, in
dataset order.  An orchestrated run's dataset is the merged week (one
:meth:`~repro.io.table.EventTable.concat` of shard tables per vantage),
so how the run was cut into shards is an input to no analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.experiments.context import ExperimentConfig, ExperimentContext, get_context

__all__ = ["ExperimentOutput", "resolve_context"]


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
