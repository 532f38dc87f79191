"""Behavioral actor tagging (GreyNoise-style).

GreyNoise's product attaches human-readable tags to scanning actors
("Mirai", "Web Crawler", "SSH Bruteforcer", …).  This module derives such
tags from captured behavior alone — ports touched, protocols spoken,
credential vocabulary, payload families — and is the qualitative
companion to :mod:`repro.analysis.campaigns`' clustering.

Tags are *descriptive*, not authoritative: a source can carry several.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analysis.dataset import AnalysisDataset

__all__ = ["TAG_RULES", "tag_sources", "tag_distribution"]

#: Credentials characteristic of Mirai-family botnets.
_MIRAI_MARKERS = frozenset({"xc3511", "vizxv", "xmhdipc", "juantech", "7ujMko0admin", "anko"})
#: Credentials of the Huawei-targeting APAC variant (paper Section 5.1).
_HUAWEI_MARKERS = frozenset({"e8ehome", "e8telnet", "mother", "telecomadmin"})


#: Tag names, in the order a source's tags are evaluated; a source
#: receives every matching tag:
#:
#: * ``mirai-like`` — tried a Mirai-family password;
#: * ``huawei-apac-variant`` — tried a Huawei-variant username or password;
#: * ``ssh-bruteforcer`` / ``telnet-bruteforcer`` — touched 22/2222
#:   (23/2323) and tried at least two distinct passwords;
#: * ``web-exploiter`` — a payload fired a web-attack, admin or trojan rule;
#: * ``web-crawler`` — spoke HTTP and sent nothing malicious;
#: * ``unexpected-protocol-prober`` — touched 80/8080 and spoke a
#:   fingerprinted protocol other than HTTP;
#: * ``wide-scanner`` — touched at least five ports.
TAG_RULES: tuple[str, ...] = (
    "mirai-like",
    "huawei-apac-variant",
    "ssh-bruteforcer",
    "telnet-bruteforcer",
    "web-exploiter",
    "web-crawler",
    "unexpected-protocol-prober",
    "wide-scanner",
)


def _pair_flags(pairs: np.ndarray, selected_codes: set[int], n_sources: int) -> np.ndarray:
    """Per-source flag: source has a (src, code) pair with a selected code."""
    flags = np.zeros(n_sources, dtype=bool)
    if pairs.shape[0] and selected_codes:
        mask = np.isin(pairs[:, 1], np.fromiter(selected_codes, dtype=np.int64))
        flags[pairs[mask, 0]] = True
    return flags


def _tag_flags(aggregates) -> np.ndarray:
    """One boolean column per :data:`TAG_RULES` tag over all sources of
    the per-source aggregates."""
    n = len(aggregates)
    mirai_pass = {c for c, v in enumerate(aggregates.pass_values) if v in _MIRAI_MARKERS}
    huawei_user = {c for c, v in enumerate(aggregates.user_values) if v in _HUAWEI_MARKERS}
    huawei_pass = {c for c, v in enumerate(aggregates.pass_values) if v in _HUAWEI_MARKERS}
    exploit_fams = {
        c for c, v in enumerate(aggregates.family_values)
        if v in {"web-application-attack", "attempted-admin", "trojan-activity"}
    }
    http_fp = {c for c, v in enumerate(aggregates.fp_values) if v == "http"}
    # fingerprints outside {None, "http", "unknown"}
    odd_fp = {
        c for c, v in enumerate(aggregates.fp_values)
        if v is not None and v not in ("http", "unknown")
    }
    ssh_ports = {22, 2222}
    telnet_ports = {23, 2323}
    http_ports = {80, 8080}

    port_pairs = aggregates.port_pairs
    pass_pairs = aggregates.pass_pairs
    n_ports = (
        np.bincount(port_pairs[:, 0], minlength=n)
        if port_pairs.shape[0] else np.zeros(n, dtype=np.int64)
    )
    n_passwords = (
        np.bincount(pass_pairs[:, 0], minlength=n)
        if pass_pairs.shape[0] else np.zeros(n, dtype=np.int64)
    )

    def port_flags(ports: set[int]) -> np.ndarray:
        flags = np.zeros(n, dtype=bool)
        if port_pairs.shape[0]:
            mask = np.isin(port_pairs[:, 1], np.fromiter(ports, dtype=np.int64))
            flags[port_pairs[mask, 0]] = True
        return flags

    many_passwords = n_passwords >= 2
    flag_columns = [
        _pair_flags(pass_pairs, mirai_pass, n),
        _pair_flags(aggregates.cred[:, :2], huawei_user, n)
        | _pair_flags(pass_pairs, huawei_pass, n),
        port_flags(ssh_ports) & many_passwords,
        port_flags(telnet_ports) & many_passwords,
        _pair_flags(aggregates.families, exploit_fams, n),
        _pair_flags(aggregates.fp_pairs, http_fp, n) & ~aggregates.malicious,
        port_flags(http_ports) & _pair_flags(aggregates.fp_pairs, odd_fp, n),
        n_ports >= 5,
    ]
    return np.stack(flag_columns, axis=1)


def tag_sources(dataset: AnalysisDataset) -> dict[int, frozenset[str]]:
    """Tag every observed source IP, in first-sighting order;
    untaggable sources get an empty set."""
    aggregates = dataset.source_aggregates()
    flag_matrix = _tag_flags(aggregates)
    memo: dict[bytes, frozenset[str]] = {}
    tags: dict[int, frozenset[str]] = {}
    sources = aggregates.sources
    for index in aggregates.first_order.tolist():
        key = flag_matrix[index].tobytes()
        tag_set = memo.get(key)
        if tag_set is None:
            tag_set = frozenset(
                tag for tag, flagged in zip(TAG_RULES, flag_matrix[index]) if flagged
            )
            memo[key] = tag_set
        tags[int(sources[index])] = tag_set
    return tags


def tag_distribution(tags: dict[int, frozenset[str]]) -> dict[str, int]:
    """Number of source IPs carrying each tag, sorted by prevalence.

    Ties keep first-sighting order, a source's own tags taken in
    :data:`TAG_RULES` order: iterating the frozenset itself would follow
    the process's string hashing.
    """
    rank = {tag: index for index, tag in enumerate(TAG_RULES)}
    counts: dict[str, int] = {}
    for tag_set, sources in Counter(tags.values()).items():
        for tag in sorted(tag_set, key=lambda tag: (rank.get(tag, len(rank)), tag)):
            counts[tag] = counts.get(tag, 0) + sources
    return dict(sorted(counts.items(), key=lambda item: -item[1]))
