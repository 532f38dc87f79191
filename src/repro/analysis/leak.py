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

The hourly series and tests are those of the streaming leak alarm
(:class:`repro.stream.windows.StreamingLeakAlarm`): Table 3 is the
full-window evaluation of one alarm drained over every row and one over
the malicious rows (:func:`drain_leak_alarm`), so the batch table,
``/alarms``, the watch snapshot and the ``credential-leak`` incident
rule share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.deployment.fleet import CRAWLER_ASES, LEAK_SERVICES

__all__ = ["LeakRow", "drain_leak_alarm", "leak_report", "unique_credentials_per_group",
           "CRAWLER_ASES", "LEAK_SERVICES"]


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


def drain_leak_alarm(dataset: AnalysisDataset, malicious_only: bool = False):
    """A :class:`~repro.stream.windows.StreamingLeakAlarm` that has
    observed the dataset's tables, every row or only the malicious ones.

    Only the rows to experiment IPs are observed, and only tables with
    such rows are labeled, so no other vantage's payload is classified
    for it.  The watermark is the dataset's last event, as if the tables
    had been streamed.
    """
    from repro.analysis.contingency_engine import dataset_coder
    from repro.stream.windows import StreamingLeakAlarm

    alarm = StreamingLeakAlarm(dataset.leak_experiment, dataset.window.hours)
    tables = [table for table in dataset.tables.values() if len(table)]
    if not tables:
        return alarm
    coder = dataset_coder(dataset) if malicious_only else None
    # One membership test for every table: a test per table costs more
    # than the rest of the drain.
    watched = np.isin(np.concatenate([table.dst_ip for table in tables]),
                      dataset.leak_experiment.all_ips)
    offsets = np.cumsum([0] + [len(table) for table in tables])
    for table, start, stop in zip(tables, offsets[:-1], offsets[1:]):
        rows = np.flatnonzero(watched[start:stop])
        if rows.size and coder is not None:
            rows = rows[coder.malicious(table)[rows]]
        if rows.size:
            alarm.observe(table.dst_ip[rows], table.dst_port[rows],
                          table.src_asn[rows], table.timestamps[rows])
    alarm.windows.watermark = max(
        alarm.windows.watermark, max(float(table.timestamps.max()) for table in tables)
    )
    return alarm


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
    """Table 3's rows: the full-window alarms over all traffic and over
    malicious traffic, interleaved per (service, group)."""
    rows: list[LeakRow] = []
    every = drain_leak_alarm(dataset).evaluate(None, alpha)
    malicious = drain_leak_alarm(dataset, malicious_only=True).evaluate(None, alpha)
    for pair in zip(every, malicious):
        for traffic, alarm in zip(("all", "malicious"), pair):
            rows.append(LeakRow(
                service=alarm.service,
                group=alarm.group,
                traffic=traffic,
                fold=alarm.fold,
                stochastically_greater=alarm.stochastically_greater,
                distribution_differs=alarm.distribution_differs,
                leaked_spikes=alarm.leaked_spikes,
                control_spikes=alarm.control_spikes,
            ))
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
    tables = [table for table in dataset.tables.values() if len(table)]
    # One membership test for every table, as in drain_leak_alarm.
    watched = np.isin(
        np.concatenate([np.empty(0, dtype=np.int64)] + [table.dst_ip for table in tables]),
        all_ips,
    )
    offsets = np.cumsum([0] + [len(table) for table in tables])
    for table, start, stop in zip(tables, offsets[:-1], offsets[1:]):
        keep = watched[start:stop]
        if not keep.any():
            continue
        keep = keep & (table.dst_port == port) & ~np.isin(table.src_asn, CRAWLER_ASES)
        if not keep.any():
            continue
        pair_rows, _pair_users, pair_passwords = coder.credential_pairs(table)
        if not pair_rows.size:
            continue
        selected = keep[pair_rows]
        destinations = table.dst_ip[pair_rows[selected]]
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
