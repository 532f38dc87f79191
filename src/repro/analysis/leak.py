"""Search-engine leak experiment analysis (paper Section 4.3, Table 3).

Compares traffic toward each leaked group (and the previously-leaked
group) against the control group:

* fold increase in traffic per hour (all traffic, and malicious-only);
* one-sided Mann–Whitney U: stochastically greater volume (bold);
* Kolmogorov–Smirnov: different hourly distribution, i.e. spikes (*);
* unique-credential counts (attackers try ~3x more unique passwords on
  leaked services).

Traffic from the search engines' own crawler ASes is excluded so that
increases are attributable to attackers, not to Censys/Shodan themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.deployment.fleet import CRAWLER_ASES, LEAK_SERVICES
from repro.stats.volume import VolumeComparison, compare_volumes, count_spikes

__all__ = ["LeakRow", "leak_report", "unique_credentials_per_group", "CRAWLER_ASES",
           "LEAK_SERVICES"]


@dataclass(frozen=True)
class LeakRow:
    """One Table 3 cell group: a service × leak-group comparison."""

    service: str  # "HTTP/80", "SSH/22", "Telnet/23"
    group: str  # "censys", "shodan", "previously"
    traffic: str  # "all" | "malicious"
    fold: float
    stochastically_greater: bool  # bold in the paper
    distribution_differs: bool  # asterisk in the paper
    leaked_spikes: int
    control_spikes: int


def _leak_series(
    dataset: AnalysisDataset,
    specs: list[tuple[tuple, int, tuple[int, ...], bool]],
) -> dict[tuple, np.ndarray]:
    """Hourly histograms for every (port, group, malicious) spec in one
    pass over the event tables; the per-IP normalization happens once at
    assembly."""
    from repro.analysis.contingency_engine import _unique_ints, dataset_coder

    hours = dataset.window.hours
    coder = dataset_coder(dataset)
    ip_arrays = {
        ips: np.asarray(ips, dtype=np.int64)
        for _key, _port, ips, _malicious_only in specs
    }
    all_ips = _unique_ints(np.concatenate(list(ip_arrays.values())))
    hists = {spec[0]: np.zeros(hours, dtype=np.int64) for spec in specs}
    for table in dataset.tables.values():
        if not len(table):
            continue
        dst_ips = table.dst_ip
        # One membership test against the union of experiment IPs
        # skips the vast majority of vantages outright.
        relevant = np.isin(dst_ips, all_ips)
        if not relevant.any():
            continue
        ports = table.dst_port
        timestamps = table.timestamps
        keep = ~np.isin(table.src_asn, CRAWLER_ASES)
        base_masks: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        # Only tables where a malicious spec selects rows need the
        # (memoized) maliciousness column.
        malicious = None
        for _key, port, ips, malicious_only in specs:
            base_key = (port, ips)
            base = base_masks.get(base_key)
            if base is None:
                base = (
                    np.isin(dst_ips, ip_arrays[ips])
                    & (ports == port)
                    & keep
                )
                base_masks[base_key] = base
            if malicious_only and malicious is None and base.any():
                malicious = coder.malicious(table)
        for key, port, ips, malicious_only in specs:
            if malicious_only and malicious is None:
                continue  # no candidate rows, nothing malicious to bin
            base = base_masks[(port, ips)]
            mask = base & malicious if malicious_only else base
            if mask.any():
                counts, _edges = np.histogram(
                    timestamps[mask], bins=hours, range=(0.0, float(hours))
                )
                hists[key] += counts
    return hists


def leak_report(dataset: AnalysisDataset, alpha: float = 0.05) -> list[LeakRow]:
    """Compute Table 3."""
    experiment = dataset.leak_experiment
    if experiment is None:
        raise ValueError("dataset has no leak experiment")

    # Memoized: Table 3 and X4 share one computation.
    return list(dataset.memoized(
        ("leak_report", alpha), lambda: tuple(_leak_rows(dataset, alpha))
    ))


def _leak_rows(dataset: AnalysisDataset, alpha: float) -> list[LeakRow]:
    """Table 3's rows; every hourly series comes from one pass over the
    event tables."""
    experiment = dataset.leak_experiment
    hours = dataset.window.hours
    groups_by_port: dict[int, dict[str, tuple[int, ...]]] = {}
    specs: list[tuple[tuple, int, tuple[int, ...], bool]] = []
    for protocol, port in LEAK_SERVICES:
        groups: dict[str, tuple[int, ...]] = {
            "control": tuple(experiment.control_ips),
            "previously": tuple(experiment.previously_leaked_ips),
        }
        for leak_group in experiment.leak_groups:
            if leak_group.port == port:
                groups[leak_group.engine] = tuple(leak_group.ips)
        groups_by_port[port] = groups
        for group_name in ("control", "censys", "shodan", "previously"):
            ips = groups.get(group_name, ())
            if not ips:
                continue
            for malicious_only in (False, True):
                specs.append(((group_name, port, malicious_only), port, ips, malicious_only))

    histograms = _leak_series(dataset, specs)

    def series(group_name: str, port: int, malicious_only: bool) -> np.ndarray:
        ips = groups_by_port[port].get(group_name, ())
        if not ips:
            return np.zeros(hours)
        counts = histograms[(group_name, port, malicious_only)]
        return counts.astype(np.float64) / float(len(ips))

    rows: list[LeakRow] = []
    for protocol, port in LEAK_SERVICES:
        for group_name in ("censys", "shodan", "previously"):
            for malicious_only in (False, True):
                leaked_series = series(group_name, port, malicious_only)
                control = series("control", port, malicious_only)
                comparison: VolumeComparison = compare_volumes(leaked_series, control)
                rows.append(
                    LeakRow(
                        service=f"{protocol.upper()}/{port}"
                        if protocol != "http"
                        else "HTTP/80",
                        group=group_name,
                        traffic="malicious" if malicious_only else "all",
                        fold=comparison.fold,
                        stochastically_greater=comparison.stochastically_greater(alpha),
                        distribution_differs=comparison.distribution_differs(alpha),
                        leaked_spikes=count_spikes(leaked_series),
                        control_spikes=count_spikes(control),
                    )
                )
    return rows


def _unique_credentials(
    dataset: AnalysisDataset, groups: dict[str, tuple[int, ...]], port: int
) -> dict[str, float]:
    """Per-honeypot unique-password sets in one pass over the event
    tables, averaged per group."""
    from repro.analysis.contingency_engine import _unique_ints, dataset_coder

    coder = dataset_coder(dataset)
    group_items = [
        (name, tuple(int(ip) for ip in ips)) for name, ips in groups.items()
    ]
    group_arrays = [
        (name, np.asarray(ips, dtype=np.int64)) for name, ips in group_items
    ]
    all_ips = _unique_ints(np.concatenate([array for _name, array in group_arrays]))
    found: dict[str, dict[int, set[str]]] = {name: {} for name, _ips in group_items}
    for table in dataset.tables.values():
        if not len(table):
            continue
        dst_column = table.dst_ip
        keep = np.isin(dst_column, all_ips)
        if not keep.any():
            continue
        keep &= (table.dst_port == port) & ~np.isin(table.src_asn, CRAWLER_ASES)
        if not keep.any():
            continue
        _payload_codes, creds = coder.coded(table)
        _has_cred, pair_rows, _pair_users, pair_passwords = creds
        if not pair_rows.size:
            continue
        selected = keep[pair_rows]
        destinations = dst_column[pair_rows[selected]]
        codes = pair_passwords[selected]
        for name, ips_array in group_arrays:
            member = np.isin(destinations, ips_array)
            per_ip = found[name]
            for ip, code in zip(
                destinations[member].tolist(), codes[member].tolist()
            ):
                per_ip.setdefault(int(ip), set()).add(coder.pass_values[code])
    averages: dict[str, float] = {}
    for name, ips in group_items:
        per_ip_unique = [len(found[name].get(ip, ())) for ip in ips]
        averages[name] = float(np.mean(per_ip_unique)) if per_ip_unique else 0.0
    return averages


def unique_credentials_per_group(
    dataset: AnalysisDataset, port: int = 22
) -> dict[str, float]:
    """Average unique passwords attempted per honeypot, per leak group.

    Section 4.3: "attackers will attempt on average 3 times more unique
    SSH passwords on leaked compared to non-leaked services."
    """
    experiment = dataset.leak_experiment
    if experiment is None:
        raise ValueError("dataset has no leak experiment")
    groups: dict[str, tuple[int, ...]] = {"control": experiment.control_ips}
    for leak_group in experiment.leak_groups:
        if leak_group.port == port:
            groups[leak_group.engine] = leak_group.ips
    return _unique_credentials(dataset, groups, port)
