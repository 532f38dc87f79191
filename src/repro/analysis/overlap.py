"""Telescope-avoidance overlap analyses (paper Tables 8 and 9).

Table 8: of the source IPs that scan a port at any cloud (or EDU)
honeypot, what fraction also sends at least one packet to that port in
the telescope?  Table 9 repeats the computation for *attacker* IPs —
sources whose payloads the vetted ruleset (or a login attempt) marked
malicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.net.ports import POPULAR_PORTS
from repro.sim.events import NetworkKind

__all__ = ["OverlapRow", "scanner_overlap", "AttackerOverlapRow", "attacker_overlap"]


def _fraction(intersection: int, denominator: int) -> Optional[float]:
    if denominator == 0:
        return None
    return 100.0 * intersection / denominator


@dataclass(frozen=True)
class OverlapRow:
    """One Table 8 row."""

    port: int
    telescope_cloud_pct: Optional[float]  # |Tel ∩ Cloud| / |Cloud|
    telescope_edu_pct: Optional[float]  # |Tel ∩ EDU| / |EDU|
    cloud_edu_pct: Optional[float]  # |Cloud ∩ EDU| / |Cloud|
    cloud_size: int
    edu_size: int
    telescope_size: int


def _port_kind_sources(
    dataset: AnalysisDataset,
    ports: Sequence[int],
    kinds: Sequence[NetworkKind],
) -> dict[tuple[int, NetworkKind], set[int]]:
    """Source-IP sets for every (port, network kind) pair, in one pass:
    each network kind's (port, source) columns are concatenated once and
    each port takes a sort-based unique source set over them."""
    from repro.analysis.contingency_engine import _unique_ints

    sources = {(port, kind): set() for port in ports for kind in kinds}
    for kind in kinds:
        tables = [
            table for table in dataset.tables.values()
            if table.network_kind == kind and len(table)
        ]
        if not tables:
            continue
        dst_port = np.concatenate([table.dst_port for table in tables])
        src_ip = np.concatenate([table.src_ip for table in tables])
        for port in ports:
            sources[(port, kind)] = set(_unique_ints(src_ip[dst_port == port]).tolist())
    return sources


def scanner_overlap(
    dataset: AnalysisDataset, ports: Sequence[int] = POPULAR_PORTS
) -> list[OverlapRow]:
    """Compute Table 8 over the dataset's popular ports."""
    if dataset.telescope is None:
        raise ValueError("dataset has no telescope capture")
    sources = _port_kind_sources(dataset, ports, (NetworkKind.CLOUD, NetworkKind.EDU))
    rows: list[OverlapRow] = []
    for port in ports:
        telescope_sources = dataset.telescope.sources_on_port(port)
        cloud_sources = sources[(port, NetworkKind.CLOUD)]
        edu_sources = sources[(port, NetworkKind.EDU)]
        rows.append(
            OverlapRow(
                port=port,
                telescope_cloud_pct=_fraction(
                    len(telescope_sources & cloud_sources), len(cloud_sources)
                ),
                telescope_edu_pct=_fraction(
                    len(telescope_sources & edu_sources), len(edu_sources)
                ),
                cloud_edu_pct=_fraction(len(cloud_sources & edu_sources), len(cloud_sources)),
                cloud_size=len(cloud_sources),
                edu_size=len(edu_sources),
                telescope_size=len(telescope_sources),
            )
        )
    return rows


#: Table 9's rows: ports where maliciousness is observable.  SSH/Telnet
#: maliciousness needs credential capture (Cowrie, cloud-side only in the
#: paper); HTTP maliciousness needs payloads (cloud and EDU).
ATTACKER_PORTS: tuple[int, ...] = (23, 2323, 80, 8080, 2222, 22)
_EDU_MEASURABLE_PORTS: frozenset[int] = frozenset({80, 8080})


@dataclass(frozen=True)
class AttackerOverlapRow:
    """One Table 9 row."""

    port: int
    telescope_cloud_pct: Optional[float]  # |Tel ∩ Mal.Cloud| / |Mal.Cloud|
    telescope_edu_pct: Optional[float]  # None renders as × (not measurable)
    malicious_cloud_size: int
    malicious_edu_size: int


def attacker_overlap(
    dataset: AnalysisDataset, ports: Sequence[int] = ATTACKER_PORTS
) -> list[AttackerOverlapRow]:
    """Compute Table 9 (attacker IPs that also appear in the telescope)."""
    if dataset.telescope is None:
        raise ValueError("dataset has no telescope capture")
    rows: list[AttackerOverlapRow] = []
    for port in ports:
        telescope_sources = dataset.telescope.sources_on_port(port)
        malicious_cloud = dataset.malicious_sources_on_port(port, NetworkKind.CLOUD)
        edu_pct: Optional[float] = None
        malicious_edu: set[int] = set()
        if port in _EDU_MEASURABLE_PORTS:
            malicious_edu = dataset.malicious_sources_on_port(port, NetworkKind.EDU)
            edu_pct = _fraction(len(telescope_sources & malicious_edu), len(malicious_edu))
        rows.append(
            AttackerOverlapRow(
                port=port,
                telescope_cloud_pct=_fraction(
                    len(telescope_sources & malicious_cloud), len(malicious_cloud)
                ),
                telescope_edu_pct=edu_pct,
                malicious_cloud_size=len(malicious_cloud),
                malicious_edu_size=len(malicious_edu),
            )
        )
    return rows


def scanner_overlap_with_ci(
    dataset: AnalysisDataset,
    ports: Sequence[int] = POPULAR_PORTS,
    confidence: float = 0.95,
    resamples: int = 1000,
):
    """Table 8 with bootstrap confidence intervals on each overlap cell.

    Returns ``[(OverlapRow, cloud_ci, edu_ci), ...]`` where the intervals
    resample the observed scanner IPs (see :mod:`repro.stats.bootstrap`).
    """
    from repro.sim.rng import analysis_rng
    from repro.stats.bootstrap import overlap_ci

    if dataset.telescope is None:
        raise ValueError("dataset has no telescope capture")
    rng = analysis_rng("table8-overlap-ci")
    rows = scanner_overlap(dataset, ports)
    enriched = []
    for row in rows:
        telescope_sources = dataset.telescope.sources_on_port(row.port)
        cloud_sources = dataset.sources_on_port(row.port, NetworkKind.CLOUD)
        edu_sources = dataset.sources_on_port(row.port, NetworkKind.EDU)
        cloud_ci = overlap_ci(telescope_sources, cloud_sources,
                              confidence=confidence, resamples=resamples, rng=rng)
        edu_ci = overlap_ci(telescope_sources, edu_sources,
                            confidence=confidence, resamples=resamples, rng=rng)
        enriched.append((row, cloud_ci, edu_ci))
    return enriched
