"""Traffic time-series utilities: hourly matrices, spikes, periodicity.

Supports two behaviors the simulator injects and the paper discusses:

* **spikes** — short bursts right after search-engine discovery
  (Section 4.3); :func:`spike_hours` lists them with their magnitude;
* **diurnal rhythm** — human-paced campaigns follow a 24-hour cycle;
  :func:`diurnal_strength` measures it via the autocorrelation of the
  hourly volume series at lag 24, and :func:`find_diurnal_sources`
  surfaces the source IPs driving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.stats.volume import hourly_volumes, spike_indices

__all__ = [
    "hourly_matrix",
    "SpikeEvent",
    "spike_hours",
    "diurnal_strength",
    "find_diurnal_sources",
]


def hourly_matrix(
    dataset: AnalysisDataset, vantage_ids: Sequence[str]
) -> np.ndarray:
    """Per-vantage hourly volume matrix, shape (len(vantage_ids), hours)."""
    hours = dataset.window.hours
    matrix = np.zeros((len(vantage_ids), hours))
    for row, vantage_id in enumerate(vantage_ids):
        table = dataset.tables.get(vantage_id)
        if table is not None and len(table):
            matrix[row] = hourly_volumes(table.timestamps, hours)
    return matrix


@dataclass(frozen=True)
class SpikeEvent:
    """One detected traffic spike."""

    hour: int
    volume: float
    baseline: float

    @property
    def magnitude(self) -> float:
        return self.volume / self.baseline if self.baseline > 0 else float("inf")


def spike_hours(
    hourly: Sequence[float], threshold_sigmas: float = 3.0
) -> list[SpikeEvent]:
    """The hours :func:`~repro.stats.volume.spike_indices` calls spikes,
    with magnitudes against the series mean."""
    series = np.asarray(hourly, dtype=np.float64)
    spikes = spike_indices(series, threshold_sigmas)
    if not spikes.size:
        return []
    mean = float(series.mean())
    return [
        SpikeEvent(hour=int(hour), volume=float(series[hour]), baseline=mean)
        for hour in spikes
    ]


def diurnal_strength(hourly: Sequence[float]) -> float:
    """Autocorrelation of the hourly series at lag 24 (−1..1).

    Near zero for uniform scanning, strongly positive for campaigns on a
    daily cycle.  Series shorter than two days return 0.
    """
    series = np.asarray(hourly, dtype=np.float64)
    if series.size < 48:
        return 0.0
    centered = series - series.mean()
    denominator = float((centered**2).sum())
    if denominator == 0.0:
        return 0.0
    lagged = float((centered[24:] * centered[:-24]).sum())
    return lagged / denominator


def find_diurnal_sources(
    dataset: AnalysisDataset,
    min_events: int = 50,
    min_strength: float = 0.25,
) -> list[tuple[int, float]]:
    """Source IPs whose traffic shows a daily rhythm.

    Returns (src_ip, strength) sorted by decreasing strength.  Sources
    with fewer than ``min_events`` events are skipped — autocorrelation
    on a handful of timestamps is noise.
    """
    hours = dataset.window.hours
    tables = [table for table in dataset.tables.values() if len(table)]
    if not tables:
        return []
    sources = np.concatenate([table.src_ip for table in tables])
    times = np.concatenate([table.timestamps for table in tables])
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    times = times[order]
    boundaries = np.flatnonzero(np.diff(sources)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(sources)]))
    rhythmic: list[tuple[int, float]] = []
    for start, stop in zip(starts, stops):
        if stop - start < min_events:
            continue
        strength = diurnal_strength(hourly_volumes(times[start:stop], hours))
        if strength >= min_strength:
            rhythmic.append((int(sources[start]), strength))
    rhythmic.sort(key=lambda item: -item[1])
    return rhythmic
