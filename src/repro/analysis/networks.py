"""Network-type comparisons (paper Section 5.2, Tables 7, 10, 14, 15).

Three comparison classes, each holding geography fixed:

* **Cloud–Cloud**: GreyNoise honeypots in different clouds but the same
  city/state (the paper's Table 6 co-location constraint);
* **Cloud–EDU / EDU–EDU**: the author-deployed Honeytrap networks, which
  share software and location;
* **Telescope–{EDU,Cloud}**: AS distributions of telescope traffic vs
  the Honeytrap networks on the same ports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.stats.comparisons import compare_fractions, compare_top_k
from repro.stats.contingency import ChiSquareResult

__all__ = [
    "NetworkPairCell",
    "network_type_report",
    "TelescopeCell",
    "telescope_as_report",
    "colocated_cloud_pairs",
]

#: Honeytrap site groups used for cloud/EDU comparisons: site name →
#: (network filter, region filter, kind label).
HONEYTRAP_SITES: dict[str, tuple[str, str]] = {
    "stanford": ("stanford", "US-WEST"),
    "merit": ("merit", "US-EAST"),
    "aws-west": ("aws", "US-WEST"),
    "google-west": ("google", "US-WEST"),
    "google-east": ("google", "US-EAST"),
}

CLOUD_EDU_PAIRS: tuple[tuple[str, str], ...] = (
    ("stanford", "aws-west"),
    ("stanford", "google-west"),
    ("merit", "google-east"),
)
EDU_EDU_PAIRS: tuple[tuple[str, str], ...] = (("stanford", "merit"),)

#: Characteristics per slice for Table 7.  Username/password rows only
#: exist for GreyNoise (Cowrie) vantage points; Honeytrap sites yield ×.
TABLE7_LAYOUT: dict[str, tuple[str, ...]] = {
    "ssh22": ("as", "username", "password", "fraction_malicious"),
    "telnet23": ("as", "username", "password", "fraction_malicious"),
    "http80": ("as", "payload", "fraction_malicious"),
    "http_all": ("as", "payload", "fraction_malicious"),
}


def colocated_cloud_pairs(dataset: AnalysisDataset) -> list[tuple[str, str, str]]:
    """(network_a, network_b, region) triples of co-located GreyNoise
    clouds in North America or Europe (the Table 6 constraint)."""
    regions: dict[str, set[str]] = {}
    for vantage in dataset.vantages:
        if vantage.vantage_id.startswith("gn-") and vantage.continent in ("NA", "EU"):
            regions.setdefault(vantage.region_code, set()).add(vantage.network)
    pairs: list[tuple[str, str, str]] = []
    for region_code, networks in sorted(regions.items()):
        ordered = sorted(networks)
        for index, first in enumerate(ordered):
            for second in ordered[index + 1 :]:
                pairs.append((first, second, region_code))
    return pairs


@dataclass(frozen=True)
class NetworkPairCell:
    """One Table 7 cell."""

    comparison: str  # "cloud-cloud" | "cloud-edu" | "edu-edu"
    slice_name: str
    characteristic: str
    num_pairs: int  # testable pairs (n in the paper's column header)
    num_different: int
    avg_phi: float
    measurable: bool = True  # False renders as × (capture cannot observe)


def _group_vectors(engine, vantages, slice_key: str, characteristic: str):
    """A vantage group's malicious fraction or per-category median vector
    over its honeypots with traffic in the slice."""
    rows = engine.active_rows(
        slice_key,
        (vantage.vantage_id for vantage in sorted(vantages, key=lambda v: v.vantage_id)),
    )
    if characteristic == "fraction_malicious":
        return engine.fraction(slice_key, rows)
    return engine.median_vector(slice_key, characteristic, rows)


def _compare_two(engine, first, second, characteristic: str) -> Optional[ChiSquareResult]:
    """Two groups' test for one characteristic."""
    if characteristic == "fraction_malicious":
        fractions = {"a": first, "b": second}
        fractions = {key: value for key, value in fractions.items() if value[1] > 0}
        if len(fractions) < 2:
            return None
        return compare_fractions(fractions)
    vectors = {"a": first, "b": second}
    vectors = {key: vector for key, vector in vectors.items() if vector.sum() > 0}
    if len(vectors) < 2:
        return None
    return engine.compare_top_k(vectors, characteristic, k=3)


def _site_vantages(dataset: AnalysisDataset, site: str):
    network, region_code = HONEYTRAP_SITES[site]
    return [
        vantage
        for vantage in dataset.vantages_in(network=network, region=region_code)
        if vantage.vantage_id.startswith("ht-")
    ]


def _site_measures_credentials(dataset: AnalysisDataset, site: str) -> bool:
    """Honeytrap captures no credentials, so username/password cells are ×."""
    engine = dataset.contingency()
    return any(
        engine.cred_events[engine.row(vantage.vantage_id)] > 0
        for vantage in _site_vantages(dataset, site)
        if engine.row(vantage.vantage_id) is not None
    )


def network_type_report(
    dataset: AnalysisDataset, alpha: float = 0.05
) -> list[NetworkPairCell]:
    """Compute Table 7's three comparison families."""
    cells: list[NetworkPairCell] = []
    engine = dataset.contingency()

    def pair_result(vantages_a, vantages_b, slice_key, characteristic):
        first = _group_vectors(engine, vantages_a, slice_key, characteristic)
        second = _group_vectors(engine, vantages_b, slice_key, characteristic)
        return _compare_two(engine, first, second, characteristic)

    # ---- cloud-cloud: co-located GreyNoise honeypots ----
    cloud_pairs = colocated_cloud_pairs(dataset)
    for slice_key, characteristics in TABLE7_LAYOUT.items():
        for characteristic in characteristics:
            results = []
            for network_a, network_b, region_code in cloud_pairs:
                group_a = dataset.vantages_in(network=network_a, region=region_code)
                group_b = dataset.vantages_in(network=network_b, region=region_code)
                result = pair_result(group_a, group_b, slice_key, characteristic)
                if result is not None:
                    results.append(result)
            significant = [
                result
                for result in results
                if result.significant(alpha, num_comparisons=max(len(results), 1))
            ]
            cells.append(
                NetworkPairCell(
                    comparison="cloud-cloud",
                    slice_name=slice_key,
                    characteristic=characteristic,
                    num_pairs=len(results),
                    num_different=len(significant),
                    avg_phi=float(np.mean([r.phi for r in significant])) if significant else 0.0,
                )
            )

    # ---- cloud-edu and edu-edu: Honeytrap sites ----
    for comparison, site_pairs in (("cloud-edu", CLOUD_EDU_PAIRS), ("edu-edu", EDU_EDU_PAIRS)):
        for slice_key, characteristics in TABLE7_LAYOUT.items():
            for characteristic in characteristics:
                measurable = True
                if characteristic in ("username", "password"):
                    measurable = all(
                        _site_measures_credentials(dataset, site)
                        for pair in site_pairs
                        for site in pair
                    )
                if not measurable:
                    cells.append(
                        NetworkPairCell(
                            comparison=comparison,
                            slice_name=slice_key,
                            characteristic=characteristic,
                            num_pairs=0,
                            num_different=0,
                            avg_phi=0.0,
                            measurable=False,
                        )
                    )
                    continue
                results = []
                for site_a, site_b in site_pairs:
                    result = pair_result(
                        _site_vantages(dataset, site_a),
                        _site_vantages(dataset, site_b),
                        slice_key,
                        characteristic,
                    )
                    if result is not None:
                        results.append(result)
                significant = [
                    result
                    for result in results
                    if result.significant(alpha, num_comparisons=max(len(results), 1))
                ]
                cells.append(
                    NetworkPairCell(
                        comparison=comparison,
                        slice_name=slice_key,
                        characteristic=characteristic,
                        num_pairs=len(results),
                        num_different=len(significant),
                        avg_phi=float(np.mean([r.phi for r in significant]))
                        if significant
                        else 0.0,
                    )
                )
    return cells


@dataclass(frozen=True)
class TelescopeCell:
    """One Table 10/15 cell: telescope-vs-site AS comparison."""

    comparison: str  # "telescope-edu" | "telescope-cloud"
    slice_name: str
    num_sites: int
    num_different: int
    avg_phi: float


#: Ports backing each Table 10 row ("Any/All" pools the popular ports).
_TELESCOPE_SLICE_PORTS: dict[str, tuple[int, ...]] = {
    "ssh22": (22,),
    "telnet23": (23,),
    "http80": (80,),
    "http_all": (80, 8080, 22, 23, 443, 21, 25, 2222, 2323, 7547),
}

_TELESCOPE_EDU_SITES: tuple[str, ...] = ("stanford", "merit")
_TELESCOPE_CLOUD_SITES: tuple[str, ...] = ("aws-west", "google-west", "google-east")


def telescope_as_report(dataset: AnalysisDataset, alpha: float = 0.05) -> list[TelescopeCell]:
    """Compute Table 10: do different ASes target the telescope?"""
    if dataset.telescope is None:
        raise ValueError("dataset has no telescope capture")
    cells: list[TelescopeCell] = []
    engine = dataset.contingency()
    # The Table 10 rows restrict by port only (the telescope sees no
    # payloads to fingerprint): single ports map to the port slices, the
    # Any/All row to the popular-port pool.
    engine_slice = {"ssh22": "ssh22", "telnet23": "telnet23", "http80": "port80", "http_all": "popular"}
    for comparison, sites in (
        ("telescope-edu", _TELESCOPE_EDU_SITES),
        ("telescope-cloud", _TELESCOPE_CLOUD_SITES),
    ):
        for slice_key, ports in _TELESCOPE_SLICE_PORTS.items():
            telescope_counts: Counter = Counter()
            for port in ports:
                telescope_counts.update(dataset.telescope.as_counts(port))
            results = []
            for site in sites:
                rows = [
                    engine.row(vantage.vantage_id)
                    for vantage in _site_vantages(dataset, site)
                    if engine.row(vantage.vantage_id) is not None
                ]
                site_counts = engine.counter(engine_slice[slice_key], "as", rows)
                if sum(site_counts.values()) == 0 or sum(telescope_counts.values()) == 0:
                    continue
                results.append(
                    compare_top_k({"telescope": telescope_counts, "site": site_counts}, k=3)
                )
            significant = [
                result
                for result in results
                if result.significant(alpha, num_comparisons=max(len(results), 1))
            ]
            cells.append(
                TelescopeCell(
                    comparison=comparison,
                    slice_name=slice_key,
                    num_sites=len(results),
                    num_different=len(significant),
                    avg_phi=float(np.mean([r.phi for r in significant])) if significant else 0.0,
                )
            )
    return cells
