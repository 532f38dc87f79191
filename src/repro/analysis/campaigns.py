"""Scanning-campaign inference: group source IPs into coordinated actors.

The paper identifies actors by autonomous system "to account for scanning
campaigns that rely on multiple source IP addresses" (Section 3.3), and
GreyNoise's whole mission is tagging such actors.  This module infers
campaigns from captured traffic alone, clustering source IPs that share a
behavioral signature:

* the set of (port, fingerprinted protocol) pairs they probe,
* their normalized payload vocabulary (ephemeral headers stripped),
* their credential vocabulary,
* their origin AS.

Two sources sharing the same signature are merged, so a botnet spread
over hundreds of IPs in one AS collapses into one inferred campaign.  A calibration utility compares inferred campaigns against
simulator ground truth — useful for validating the inference, and only
available when ground truth exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.dataset import AnalysisDataset

__all__ = ["InferredCampaign", "infer_campaigns", "campaign_agreement"]


@dataclass
class InferredCampaign:
    """One inferred coordinated campaign."""

    campaign_id: int
    source_ips: set[int]
    asns: set[int]
    ports: set[int]
    protocols: set[str]
    event_count: int
    malicious: bool

    @property
    def size(self) -> int:
        return len(self.source_ips)


def _per_source_slices(pairs: np.ndarray, n_sources: int) -> np.ndarray:
    """Start offsets per source index into a src-sorted pair array
    (length ``n_sources + 1``; ``pairs`` comes src-major from
    ``np.unique(axis=0)``)."""
    return np.searchsorted(pairs[:, 0], np.arange(n_sources + 1, dtype=np.int64))


def infer_campaigns(
    dataset: AnalysisDataset, min_size: int = 1
) -> list[InferredCampaign]:
    """Cluster source IPs by identical behavioral signature.

    Returns campaigns of at least ``min_size`` member IPs, largest first.
    Per-source signature frozensets come from the per-source aggregates'
    distinct-pair arrays.
    """
    aggregates = dataset.source_aggregates()
    n = len(aggregates)
    port_fp_at = _per_source_slices(aggregates.port_fp, n)
    cred_at = _per_source_slices(aggregates.cred, n)
    payload_at = _per_source_slices(aggregates.payloads, n)
    fp_values = aggregates.fp_values
    user_values = aggregates.user_values
    pass_values = aggregates.pass_values
    stripped_values = aggregates.stripped_values

    port_protocols: list[frozenset] = []
    payload_sets: list[frozenset] = []
    credential_sets: list[frozenset] = []
    for index in range(n):
        rows = aggregates.port_fp[port_fp_at[index]:port_fp_at[index + 1]]
        port_protocols.append(
            frozenset((int(port), fp_values[fp] or "-") for _s, port, fp in rows.tolist())
        )
        rows = aggregates.payloads[payload_at[index]:payload_at[index + 1]]
        payload_sets.append(frozenset(stripped_values[code] for _s, code in rows.tolist()))
        rows = aggregates.cred[cred_at[index]:cred_at[index + 1]]
        credential_sets.append(
            frozenset((user_values[u], pass_values[p]) for _s, u, p in rows.tolist())
        )

    # The first source (in first-sighting order) with a signature anchors
    # its cluster.
    sources = aggregates.sources
    first_with_signature: dict[tuple, int] = {}
    members: dict[int, set[int]] = {}
    member_indexes: dict[int, list[int]] = {}
    for index in aggregates.first_order.tolist():
        src_ip = int(sources[index])
        signature = (
            int(aggregates.first_asn[index]),
            port_protocols[index],
            payload_sets[index],
            credential_sets[index],
        )
        anchor = first_with_signature.setdefault(signature, src_ip)
        if anchor == src_ip:
            members[anchor] = {src_ip}
            member_indexes[anchor] = [index]
        else:
            members[anchor].add(src_ip)
            member_indexes[anchor].append(index)

    asn_at = _per_source_slices(aggregates.asn_pairs, n)
    campaigns: list[InferredCampaign] = []
    for campaign_id, (root, ips) in enumerate(
        sorted(members.items(), key=lambda item: (-len(item[1]), item[0]))
    ):
        if len(ips) < min_size:
            continue
        indexes = member_indexes[root]
        asns: set[int] = set()
        ports: set[int] = set()
        protocols: set[str] = set()
        for index in indexes:
            asns.update(
                int(asn)
                for asn in aggregates.asn_pairs[asn_at[index]:asn_at[index + 1], 1].tolist()
            )
            for _s, port, fp in aggregates.port_fp[port_fp_at[index]:port_fp_at[index + 1]].tolist():
                ports.add(int(port))
                protocol = fp_values[fp]
                if protocol is not None:
                    protocols.add(protocol)
        campaigns.append(
            InferredCampaign(
                campaign_id=campaign_id,
                source_ips=set(ips),
                asns=asns,
                ports=ports,
                protocols=protocols,
                event_count=int(aggregates.event_count[indexes].sum()),
                malicious=bool(aggregates.malicious[indexes].any()),
            )
        )
    return campaigns


def campaign_agreement(
    campaigns: Iterable[InferredCampaign],
    truth: Mapping[int, str],
) -> float:
    """Purity of inferred campaigns against ground-truth labels.

    ``truth`` maps source IP → true campaign id (from the simulator's
    ``source_ips``).  Returns the fraction of IPs whose inferred cluster
    is dominated by their own true campaign — 1.0 means every inferred
    cluster is pure.  Calibration/validation only.
    """
    total = 0
    agreeing = 0
    for campaign in campaigns:
        labels = [truth[ip] for ip in campaign.source_ips if ip in truth]
        if not labels:
            continue
        dominant = max(set(labels), key=labels.count)
        total += len(labels)
        agreeing += labels.count(dominant)
    return agreeing / total if total else 1.0
