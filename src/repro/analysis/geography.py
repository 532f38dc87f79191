"""Geographic comparisons (paper Section 5.1, Tables 4, 5, 13, 16).

Regional traffic profiles are built with the Section 4.4 filtering: the
per-category *median* across the honeypots in a (network, region) group,
which suppresses single-honeypot attacker latching before regions are
compared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset, SLICES
from repro.net.geo import region as region_info
from repro.stats.comparisons import compare_fractions
from repro.stats.contingency import ChiSquareResult

__all__ = [
    "RegionProfile",
    "build_region_profiles",
    "GeoPairSummary",
    "geo_similarity",
    "MostDifferentRegion",
    "most_different_regions",
]

#: Networks with enough geographic diversity for Tables 4/5.
GEO_NETWORKS: tuple[str, ...] = ("aws", "google", "linode")

#: Characteristics compared per slice in Tables 4/5.
GEO_CHARACTERISTICS: dict[str, tuple[str, ...]] = {
    "ssh22": ("as", "fraction_malicious", "username", "password"),
    "telnet23": ("as", "fraction_malicious", "username", "password"),
    "http80": ("as", "fraction_malicious", "payload"),
    "http_all": ("as", "fraction_malicious", "payload"),
}


@dataclass
class RegionProfile:
    """Median-filtered traffic profile of one (network, region) group."""

    network: str
    region: str
    continent: str
    counters: dict[str, dict[str, Counter]]  # slice -> characteristic -> Counter
    fractions: dict[str, tuple[int, int]]  # slice -> (malicious, total)


def build_region_profiles(
    dataset: AnalysisDataset,
    networks: Sequence[str] = GEO_NETWORKS,
    slices: Optional[Sequence[str]] = None,
    aggregate: str = "median",
) -> list[RegionProfile]:
    """Aggregate honeypot traffic into per-region profiles.

    ``aggregate="median"`` is the paper's Section 4.4 filtering (per-
    category median across the group's honeypots, suppressing single-
    target latching); ``aggregate="sum"`` pools raw counts and exists for
    the ablation benchmark that quantifies what the median buys.
    """
    slice_keys = list(slices) if slices is not None else list(GEO_CHARACTERISTICS)
    engine = dataset.contingency()
    return [
        RegionProfile(
            network=profile.network,
            region=profile.region,
            continent=profile.continent,
            counters={
                slice_key: {
                    characteristic: _vector_counter(engine, characteristic, vector)
                    for characteristic, vector in by_char.items()
                }
                for slice_key, by_char in profile.vectors.items()
            },
            fractions=dict(profile.fractions),
        )
        for profile in _vector_profiles(dataset, engine, networks, slice_keys, aggregate)
    ]


@dataclass
class _VectorProfile:
    """Region profile as aggregated count vectors over the engine's
    category columns.  Vector values are exact (integers, or halves from
    the median), so elementwise aggregation is bit-equivalent to Counter
    arithmetic regardless of summation order."""

    network: str
    region: str
    continent: str
    vectors: dict[str, dict[str, np.ndarray]]  # slice -> characteristic -> vector
    fractions: dict[str, tuple[int, int]]  # slice -> (malicious, total)


def _vector_counter(engine, characteristic: str, vector: np.ndarray) -> Counter:
    """Materialize one aggregated vector as a Counter (python category
    objects, zero entries dropped — ``median_counter``'s form)."""
    values = engine.values[characteristic]
    if vector.dtype == np.float64:
        return Counter(
            {values[col]: float(vector[col]) for col in np.flatnonzero(vector > 0).tolist()}
        )
    return Counter(
        {values[col]: int(vector[col]) for col in np.flatnonzero(vector).tolist()}
    )


def _vector_profiles(
    dataset: AnalysisDataset,
    engine,
    networks: Sequence[str],
    slice_keys: Sequence[str],
    aggregate: str = "median",
) -> list["_VectorProfile"]:
    """Per-region aggregated vectors off the contingency engine.

    Honeypots are taken sorted by vantage id, observing stacks only;
    honeypots with zero slice events are dropped (they are excluded from
    the median).
    """
    if aggregate not in ("median", "sum"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    profiles: list[_VectorProfile] = []
    neighborhoods = dataset.neighborhoods(list(networks), vantage_prefix="gn-")
    for (network, region_code), vantages in sorted(neighborhoods.items()):
        vectors: dict[str, dict[str, np.ndarray]] = {}
        fractions: dict[str, tuple[int, int]] = {}
        for slice_key in slice_keys:
            traffic_slice = SLICES[slice_key]
            rows = engine.active_rows(
                slice_key,
                (
                    vantage.vantage_id
                    for vantage in sorted(vantages, key=lambda v: v.vantage_id)
                    if vantage.stack.observes(traffic_slice.port or 80)
                ),
            )
            by_char: dict[str, np.ndarray] = {}
            for characteristic in GEO_CHARACTERISTICS[slice_key]:
                if characteristic == "fraction_malicious":
                    continue
                if aggregate == "median":
                    by_char[characteristic] = engine.median_vector(
                        slice_key, characteristic, rows
                    )
                else:
                    by_char[characteristic] = engine.sum_vector(
                        slice_key, characteristic, rows
                    )
            vectors[slice_key] = by_char
            fractions[slice_key] = engine.fraction(slice_key, rows)
        profiles.append(
            _VectorProfile(
                network=network,
                region=region_code,
                continent=region_info(region_code).continent.value,
                vectors=vectors,
                fractions=fractions,
            )
        )
    return profiles


def _compare_profiles(
    engine, first: _VectorProfile, second: _VectorProfile, slice_key: str, characteristic: str
) -> Optional[ChiSquareResult]:
    """One region pair's test for one slice/characteristic."""
    if characteristic == "fraction_malicious":
        fractions = {
            first.region + "@" + first.network: first.fractions.get(slice_key, (0, 0)),
            second.region + "@" + second.network: second.fractions.get(slice_key, (0, 0)),
        }
        fractions = {key: value for key, value in fractions.items() if value[1] > 0}
        if len(fractions) < 2:
            return None
        return compare_fractions(fractions)
    vectors = {
        first.region + "@" + first.network: first.vectors.get(slice_key, {}).get(characteristic),
        second.region + "@" + second.network: second.vectors.get(slice_key, {}).get(characteristic),
    }
    vectors = {
        key: vector
        for key, vector in vectors.items()
        if vector is not None and vector.sum() > 0
    }
    if len(vectors) < 2:
        return None
    return engine.compare_top_k(vectors, characteristic, k=3)


@dataclass(frozen=True)
class GeoPairSummary:
    """One Table 5 cell: similarity of region pairs in one grouping."""

    grouping: str  # "US", "EU", "APAC", "intercontinental"
    slice_name: str
    characteristic: str
    num_pairs: int
    num_similar: int

    @property
    def percent_similar(self) -> float:
        if self.num_pairs == 0:
            return 100.0
        return 100.0 * self.num_similar / self.num_pairs


def _grouping_of(first: _VectorProfile, second: _VectorProfile) -> Optional[str]:
    """Assign a pair of same-network regions to a Table 5 grouping."""
    if first.continent != second.continent:
        return "intercontinental"
    if first.continent == "NA":
        # The paper's US grouping: both regions inside the United States.
        if first.region.startswith("US") and second.region.startswith("US"):
            return "US"
        return "intercontinental"  # US↔Canada pairs counted as cross-region
    if first.continent == "EU":
        return "EU"
    if first.continent == "AP":
        return "APAC"
    return None


def geo_similarity(
    dataset: AnalysisDataset,
    networks: Sequence[str] = GEO_NETWORKS,
    alpha: float = 0.05,
) -> list[GeoPairSummary]:
    """Compute Table 5: % of similar region pairs per grouping.

    Memoized (Table 5 and X4 share one computation).
    """
    networks = tuple(networks)
    return list(dataset.memoized(
        ("geo_similarity", networks, alpha),
        lambda: tuple(_geo_similarity(dataset, networks, alpha)),
    ))


def _geo_similarity(
    dataset: AnalysisDataset, networks: Sequence[str], alpha: float
) -> list[GeoPairSummary]:
    engine = dataset.contingency()
    profiles = _vector_profiles(dataset, engine, networks, list(GEO_CHARACTERISTICS))
    by_network: dict[str, list[_VectorProfile]] = {}
    for profile in profiles:
        by_network.setdefault(profile.network, []).append(profile)

    pairs: list[tuple[str, _VectorProfile, _VectorProfile]] = []
    for network, network_profiles in sorted(by_network.items()):
        ordered = sorted(network_profiles, key=lambda p: p.region)
        for index, first in enumerate(ordered):
            for second in ordered[index + 1 :]:
                grouping = _grouping_of(first, second)
                if grouping is not None:
                    pairs.append((grouping, first, second))

    summaries: list[GeoPairSummary] = []
    for slice_key, characteristics in GEO_CHARACTERISTICS.items():
        for characteristic in characteristics:
            grouped: dict[str, list[Optional[ChiSquareResult]]] = {}
            for grouping, first, second in pairs:
                grouped.setdefault(grouping, []).append(
                    _compare_profiles(engine, first, second, slice_key, characteristic)
                )
            total_tests = sum(
                1 for results in grouped.values() for result in results if result is not None
            )
            for grouping, results in sorted(grouped.items()):
                testable = [result for result in results if result is not None]
                different = sum(
                    1
                    for result in testable
                    if result.significant(alpha, num_comparisons=max(total_tests, 1))
                )
                summaries.append(
                    GeoPairSummary(
                        grouping=grouping,
                        slice_name=slice_key,
                        characteristic=characteristic,
                        num_pairs=len(testable),
                        num_similar=len(testable) - different,
                    )
                )
    return summaries


@dataclass(frozen=True)
class MostDifferentRegion:
    """One Table 4 cell: the most deviant region for one comparison."""

    network: str
    slice_name: str
    characteristic: str
    region: Optional[str]  # None when nothing is significant
    avg_phi: float


def most_different_regions(
    dataset: AnalysisDataset,
    networks: Sequence[str] = GEO_NETWORKS,
    alpha: float = 0.05,
    aggregate: str = "median",
) -> list[MostDifferentRegion]:
    """Compute Table 4: per network/slice/characteristic, the region whose
    traffic deviates most from the network's other regions.

    Each region is compared against the aggregate of the network's other
    regions; Bonferroni correction runs over the family of per-network
    region tests.  ``aggregate`` builds the region profiles as in
    :func:`build_region_profiles` (``"sum"`` is the ablation).
    """
    engine = dataset.contingency()
    profiles = _vector_profiles(
        dataset, engine, networks, list(GEO_CHARACTERISTICS), aggregate
    )
    by_network: dict[str, list[_VectorProfile]] = {}
    for profile in profiles:
        by_network.setdefault(profile.network, []).append(profile)

    cells: list[MostDifferentRegion] = []
    for network, network_profiles in sorted(by_network.items()):
        ordered = sorted(network_profiles, key=lambda p: p.region)
        for slice_key, characteristics in GEO_CHARACTERISTICS.items():
            for characteristic in characteristics:
                region_results: list[tuple[str, ChiSquareResult]] = []
                for profile in ordered:
                    others = [other for other in ordered if other is not profile]
                    result = _compare_rest(
                        engine, profile, others, slice_key, characteristic
                    )
                    if result is not None:
                        region_results.append((profile.region, result))
                significant = [
                    (region_code, result)
                    for region_code, result in region_results
                    if result.significant(alpha, num_comparisons=max(len(region_results), 1))
                ]
                if significant:
                    best_region, best = max(significant, key=lambda item: item[1].phi)
                    avg_phi = float(np.mean([result.phi for _r, result in significant]))
                else:
                    best_region, avg_phi = None, 0.0
                cells.append(
                    MostDifferentRegion(
                        network=network,
                        slice_name=slice_key,
                        characteristic=characteristic,
                        region=best_region,
                        avg_phi=avg_phi,
                    )
                )
    return cells


def _compare_rest(
    engine,
    profile: _VectorProfile,
    others: Sequence[_VectorProfile],
    slice_key: str,
    characteristic: str,
) -> Optional[ChiSquareResult]:
    """One region against the pooled rest of its network."""
    if characteristic == "fraction_malicious":
        own = profile.fractions.get(slice_key, (0, 0))
        rest = (
            sum(other.fractions.get(slice_key, (0, 0))[0] for other in others),
            sum(other.fractions.get(slice_key, (0, 0))[1] for other in others),
        )
        fractions = {"region": own, "rest": rest}
        fractions = {key: value for key, value in fractions.items() if value[1] > 0}
        if len(fractions) < 2:
            return None
        return compare_fractions(fractions)
    own_vector = profile.vectors.get(slice_key, {}).get(characteristic)
    width = len(engine.values[characteristic])
    if own_vector is None:
        own_vector = np.zeros(width, dtype=np.float64)
    rest_vector = np.zeros(width, dtype=np.float64)
    for other in others:
        vector = other.vectors.get(slice_key, {}).get(characteristic)
        if vector is not None:
            rest_vector += vector
    vectors = {"region": own_vector, "rest": rest_vector}
    vectors = {key: vector for key, vector in vectors.items() if vector.sum() > 0}
    if len(vectors) < 2:
        return None
    return engine.compare_top_k(vectors, characteristic, k=3)
