"""Vantage-point dataset summary (paper Table 1).

Counts unique scanning IPs and ASes per deployment row: each GreyNoise
network, each Honeytrap site, and the telescope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.dataset import AnalysisDataset

__all__ = ["VantageSummaryRow", "vantage_summary"]


@dataclass(frozen=True)
class VantageSummaryRow:
    """One Table 1 row."""

    network: str
    collection: str  # "GreyNoise" | "Honeytrap" | "Telescope"
    num_regions: int
    num_vantage_ips: int
    unique_scan_ips: int
    unique_scan_ases: int


def vantage_summary(dataset: AnalysisDataset) -> list[VantageSummaryRow]:
    """Compute Table 1 for the dataset's deployment."""
    rows: list[VantageSummaryRow] = []
    groups: dict[tuple[str, str], list] = {}
    for vantage in dataset.vantages:
        if vantage.vantage_id.startswith("gn-"):
            collection = "GreyNoise"
        elif vantage.vantage_id.startswith(("ht-", "leak-")):
            collection = "Honeytrap"
        else:
            collection = vantage.stack.name
        groups.setdefault((vantage.network, collection), []).append(vantage)

    group_keys = sorted(groups)
    group_sets = _unique_sources_by_group(dataset, groups, group_keys)

    for network, collection in group_keys:
        vantages = groups[(network, collection)]
        sources, ases = group_sets[(network, collection)]
        rows.append(
            VantageSummaryRow(
                network=network,
                collection=collection,
                num_regions=len({vantage.region_code for vantage in vantages}),
                num_vantage_ips=sum(vantage.num_ips for vantage in vantages),
                unique_scan_ips=len(sources),
                unique_scan_ases=len(ases),
            )
        )

    if dataset.telescope is not None:
        telescope = dataset.telescope
        rows.append(
            VantageSummaryRow(
                network=telescope.vantage.network,
                collection="Telescope",
                num_regions=1,
                num_vantage_ips=telescope.vantage.num_ips,
                unique_scan_ips=telescope.total_unique_sources(),
                unique_scan_ases=telescope.total_unique_ases(),
            )
        )
    return rows


def _unique_sources_by_group(
    dataset: AnalysisDataset, groups: dict, group_keys: list
) -> dict[tuple[str, str], tuple[set[int], set[int]]]:
    """Unique (src_ip, src_asn) sets per deployment group: one sort-based
    unique over each group's concatenated address columns."""
    from repro.analysis.contingency_engine import _unique_ints

    unique = {key: (set(), set()) for key in group_keys}
    for key in group_keys:
        tables = [
            table
            for table in (dataset.tables.get(vantage.vantage_id) for vantage in groups[key])
            if table is not None and len(table)
        ]
        if tables:
            unique[key] = (
                set(_unique_ints(np.concatenate([t.src_ip for t in tables])).tolist()),
                set(_unique_ints(np.concatenate([t.src_asn for t in tables])).tolist()),
            )
    return unique
