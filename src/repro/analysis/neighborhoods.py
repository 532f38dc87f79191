"""Neighboring-service comparisons (paper Section 4.1, Tables 2 and 12).

For every (network, region) neighborhood of honeypots, compare the
per-honeypot distributions of each traffic characteristic with the
Section 3.3 top-3 chi-squared methodology; report the percentage of
neighborhoods whose honeypots receive significantly different traffic
and the average effect size among the significant ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset, SLICES
from repro.stats.comparisons import compare_fractions

__all__ = ["NeighborhoodCell", "NeighborhoodReport", "neighborhood_report", "TABLE2_LAYOUT"]

#: Characteristics per slice, matching Table 2's rows.
TABLE2_LAYOUT: dict[str, tuple[str, ...]] = {
    "ssh22": ("as", "fraction_malicious", "username", "password"),
    "telnet23": ("as", "fraction_malicious", "username", "password"),
    "http80": ("as", "fraction_malicious", "payload"),
    "http_all": ("as", "fraction_malicious", "payload"),
}

#: GreyNoise networks used for the neighborhood analysis (Section 4.1
#: uses GreyNoise vantage points only).
GREYNOISE_NETWORKS: tuple[str, ...] = ("aws", "google", "azure", "linode", "hurricane")


@dataclass(frozen=True)
class NeighborhoodCell:
    """One Table 2 cell: a (slice, characteristic) summary."""

    slice_name: str
    characteristic: str
    num_neighborhoods: int
    num_different: int
    avg_phi: float

    @property
    def percent_different(self) -> float:
        if self.num_neighborhoods == 0:
            return 0.0
        return 100.0 * self.num_different / self.num_neighborhoods


@dataclass
class NeighborhoodReport:
    """All Table 2 cells for one dataset."""

    cells: list[NeighborhoodCell]

    def cell(self, slice_name: str, characteristic: str) -> NeighborhoodCell:
        for cell in self.cells:
            if cell.slice_name == slice_name and cell.characteristic == characteristic:
                return cell
        raise KeyError(f"no cell for ({slice_name}, {characteristic})")


def _neighborhood_comparison(
    engine, slice_key: str, honeypot_rows: dict[str, int], characteristic: str, k: int = 3
):
    """Run one neighborhood's chi-squared test for one characteristic, on
    the honeypots' count-table rows."""
    if characteristic == "fraction_malicious":
        fractions = {
            vantage_id: engine.fraction(slice_key, [row])
            for vantage_id, row in honeypot_rows.items()
        }
        fractions = {key: value for key, value in fractions.items() if value[1] > 0}
        if len(fractions) < 2:
            return None
        return compare_fractions(fractions)
    vectors = {
        vantage_id: engine.row_vector(slice_key, characteristic, row)
        for vantage_id, row in honeypot_rows.items()
    }
    vectors = {key: vector for key, vector in vectors.items() if vector.sum() > 0}
    if len(vectors) < 2:
        return None
    return engine.compare_top_k(vectors, characteristic, k=k)


def neighborhood_report(
    dataset: AnalysisDataset,
    networks: Sequence[str] = GREYNOISE_NETWORKS,
    alpha: float = 0.05,
    max_honeypots_per_neighborhood: Optional[int] = None,
    k: int = 3,
    bonferroni: bool = True,
) -> NeighborhoodReport:
    """Compute Table 2 on a dataset.

    ``max_honeypots_per_neighborhood`` caps very large neighborhoods
    (the Hurricane Electric /24) with a deterministic prefix; None keeps
    all honeypots.  ``k`` and ``bonferroni`` exist for the methodology
    ablations: the paper's Section 3.3 fixes k=3 (footnote 2 explains
    why) and always corrects for multiple comparisons.  Memoized on
    table-backed datasets (Table 2 and X4 share one computation).
    """
    networks = tuple(networks)
    cells = dataset.memoized(
        ("neighborhood_report", networks, alpha, max_honeypots_per_neighborhood, k, bonferroni),
        lambda: _neighborhood_cells(
            dataset, networks, alpha, max_honeypots_per_neighborhood, k, bonferroni
        ),
    )
    return NeighborhoodReport(list(cells))


def _neighborhood_cells(
    dataset: AnalysisDataset,
    networks: tuple[str, ...],
    alpha: float,
    max_honeypots_per_neighborhood: Optional[int],
    k: int,
    bonferroni: bool,
) -> tuple[NeighborhoodCell, ...]:
    engine = dataset.contingency()
    neighborhoods = dataset.neighborhoods(networks=list(networks), vantage_prefix="gn-")
    cells: list[NeighborhoodCell] = []

    for slice_key, characteristics in TABLE2_LAYOUT.items():
        traffic_slice = SLICES[slice_key]
        # Per neighborhood: the count-table row of every observing
        # honeypot that saw traffic in the slice.
        sliced: dict[tuple[str, str], dict[str, int]] = {}
        for key, vantages in neighborhoods.items():
            vantages = sorted(vantages, key=lambda v: v.vantage_id)
            if max_honeypots_per_neighborhood is not None:
                vantages = vantages[:max_honeypots_per_neighborhood]
            observing = [
                vantage
                for vantage in vantages
                if vantage.stack.observes(traffic_slice.port or 80)
            ]
            per_honeypot = {
                vantage.vantage_id: engine.row(vantage.vantage_id)
                for vantage in observing
                if engine.row(vantage.vantage_id) is not None
                and engine.events[slice_key][engine.row(vantage.vantage_id)] > 0
            }
            if len(per_honeypot) >= 2:
                sliced[key] = per_honeypot

        for characteristic in characteristics:
            results = []
            for key, per_honeypot in sorted(sliced.items()):
                result = _neighborhood_comparison(
                    engine, slice_key, per_honeypot, characteristic, k=k
                )
                if result is not None:
                    results.append(result)
            corrections = max(len(results), 1) if bonferroni else 1
            significant = [
                result
                for result in results
                if result.significant(alpha, num_comparisons=corrections)
            ]
            avg_phi = float(np.mean([result.phi for result in significant])) if significant else 0.0
            cells.append(
                NeighborhoodCell(
                    slice_name=slice_key,
                    characteristic=characteristic,
                    num_neighborhoods=len(results),
                    num_different=len(significant),
                    avg_phi=avg_phi,
                )
            )
    return tuple(cells)
