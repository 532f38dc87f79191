"""Blocklist efficacy across regions and networks (paper Section 8).

The paper's recommendations note that "sharing blocklists ... assumes
that the same attackers attack services across geographic locations and
networks.  However, our results show that scanners and payloads differ
across continents, especially within the Asia Pacific.  We leave to
future work comparing the efficacy of blocklists that source information
from different regions."  This module is that future work, run on the
simulated dataset:

* :func:`build_blocklist` — the malicious source IPs a defender observes
  at a set of vantage points during a training prefix of the window;
* :func:`blocklist_coverage` — how much of another vantage set's
  malicious traffic those IPs would have blocked;
* :func:`regional_blocklist_matrix` — the full source-region × target-
  region coverage matrix (the deliverable the paper asks for).

All three need a table-backed dataset: they read the source columns and
the dataset coder's per-event maliciousness label, never rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.honeypots.base import VantagePoint

__all__ = [
    "build_blocklist",
    "load_blocklist_file",
    "write_blocklist_file",
    "BlocklistCoverage",
    "blocklist_coverage",
    "RegionalCell",
    "regional_blocklist_matrix",
    "CONTINENT_GROUPS",
]

#: Default source/target groupings: the paper's three continents.
CONTINENT_GROUPS: tuple[str, ...] = ("NA", "EU", "AP")


def _group_tables(dataset: AnalysisDataset, vantages: Sequence[VantagePoint]):
    """The dataset coder and the non-empty tables of ``vantages``."""
    from repro.analysis.contingency_engine import dataset_coder

    tables = (dataset.tables.get(vantage.vantage_id) for vantage in vantages)
    tables = [table for table in tables if table is not None and len(table)]
    coder = dataset_coder(dataset)
    coder.intern(tables)
    return coder, tables


def build_blocklist(
    dataset: AnalysisDataset,
    vantages: Sequence[VantagePoint],
    until_hour: Optional[float] = None,
) -> set[int]:
    """Malicious source IPs observed at ``vantages`` before ``until_hour``.

    This is what a defender sharing threat intelligence from those
    honeypots would distribute.  ``until_hour=None`` uses the whole
    window (an oracle blocklist; pass half the window for a realistic
    train/apply split).
    """
    from repro.analysis.contingency_engine import _unique_ints

    coder, tables = _group_tables(dataset, vantages)
    parts = []
    for table in tables:
        mask = coder.malicious(table)
        if until_hour is not None:
            mask = mask & (table.timestamps < until_hour)
        parts.append(table.src_ip[mask])
    return set(_unique_ints(np.concatenate(parts)).tolist()) if parts else set()


def load_blocklist_file(path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Load an external blocklist file as ``(ips, asns)`` tuples.

    Thin wrapper over the typed schema layer's
    :func:`~repro.serve.schema.validate_blocklist_file`, so the CLI,
    the X1 external-file mode, and the closed-loop baseline all share
    one parser with one error shape.
    """
    from repro.serve.schema import validate_blocklist_file

    return validate_blocklist_file(path)


def write_blocklist_file(path, ips: Iterable[int] = (), asns: Iterable[int] = ()) -> int:
    """Write a blocklist file in the format :func:`load_blocklist_file`
    reads (dotted-quad IPs, ``AS<number>`` lines).  Returns the entry
    count.  Entries are written sorted, so identical sets produce
    byte-identical files."""
    lines = []
    for ip in sorted({int(ip) for ip in ips}):
        lines.append(
            f"{(ip >> 24) & 0xFF}.{(ip >> 16) & 0xFF}.{(ip >> 8) & 0xFF}.{ip & 0xFF}"
        )
    lines.extend(f"AS{asn}" for asn in sorted({int(asn) for asn in asns}))
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


@dataclass(frozen=True)
class BlocklistCoverage:
    """How well a blocklist protects a target vantage set."""

    blocklist_size: int
    malicious_events: int
    blocked_events: int
    malicious_ips: int
    blocked_ips: int

    @property
    def event_coverage_pct(self) -> float:
        if self.malicious_events == 0:
            return 100.0
        return 100.0 * self.blocked_events / self.malicious_events

    @property
    def ip_coverage_pct(self) -> float:
        if self.malicious_ips == 0:
            return 100.0
        return 100.0 * self.blocked_ips / self.malicious_ips


def _malicious_sources(
    dataset: AnalysisDataset, vantages: Sequence[VantagePoint], from_hour: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(src_ip, src_asn)`` of every malicious event at ``vantages`` from
    ``from_hour`` onward, concatenated over the group's tables."""
    coder, tables = _group_tables(dataset, vantages)
    ips, asns = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for table in tables:
        mask = coder.malicious(table) & (table.timestamps >= from_hour)
        ips.append(table.src_ip[mask])
        asns.append(table.src_asn[mask])
    return np.concatenate(ips), np.concatenate(asns)


def _coverage(
    blocklist: Iterable[int], asns: Iterable[int], sources: tuple[np.ndarray, np.ndarray]
) -> BlocklistCoverage:
    """Score IP and AS entries against ``_malicious_sources`` output."""
    from repro.analysis.contingency_engine import _unique_ints

    blocked_set = set(blocklist)
    blocked_asns = set(asns)
    src_ips, src_asns = sources
    blocked = np.isin(src_ips, np.array(list(blocked_set), dtype=np.int64))
    blocked |= np.isin(src_asns, np.array(list(blocked_asns), dtype=np.int64))
    return BlocklistCoverage(
        blocklist_size=len(blocked_set) + len(blocked_asns),
        malicious_events=int(src_ips.size),
        blocked_events=int(np.count_nonzero(blocked)),
        malicious_ips=int(_unique_ints(src_ips).size),
        blocked_ips=int(_unique_ints(src_ips[blocked]).size),
    )


def blocklist_coverage(
    dataset: AnalysisDataset,
    blocklist: Iterable[int],
    vantages: Sequence[VantagePoint],
    from_hour: float = 0.0,
    asns: Iterable[int] = (),
) -> BlocklistCoverage:
    """Evaluate a blocklist against the malicious traffic at ``vantages``
    from ``from_hour`` onward (use the training split's end).

    ``asns`` extends the match beyond source IPs: an event is blocked if
    its source IP *or* its source AS is listed (external blocklist files
    and incident-response runbooks both emit AS entries)."""
    return _coverage(blocklist, asns, _malicious_sources(dataset, vantages, from_hour))


@dataclass(frozen=True)
class RegionalCell:
    """One cell of the source→target blocklist matrix."""

    source_group: str
    target_group: str
    coverage: BlocklistCoverage


def _continent_vantages(dataset: AnalysisDataset, continent: str) -> list[VantagePoint]:
    return [
        vantage
        for vantage in dataset.vantages
        if vantage.continent == continent and vantage.vantage_id.startswith("gn-")
    ]


def regional_blocklist_matrix(
    dataset: AnalysisDataset,
    groups: Sequence[str] = CONTINENT_GROUPS,
    train_hours: Optional[float] = None,
) -> list[RegionalCell]:
    """Cross-continental blocklist coverage matrix.

    ``train_hours`` splits the window: blocklists are built from the
    first ``train_hours`` and evaluated on the remainder (defaults to
    half the window).  Diagonal cells measure a blocklist at home;
    off-diagonal cells measure exporting it across continents —
    the paper predicts the export penalty is worst for Asia Pacific.
    """
    if train_hours is None:
        train_hours = dataset.window.hours / 2.0
    vantages = {group: _continent_vantages(dataset, group) for group in groups}
    blocklists = {
        group: build_blocklist(dataset, vantages[group], train_hours) for group in groups
    }
    targets = {
        group: _malicious_sources(dataset, vantages[group], train_hours) for group in groups
    }
    return [
        RegionalCell(source, target, _coverage(blocklists[source], (), targets[target]))
        for source in groups
        for target in groups
    ]
