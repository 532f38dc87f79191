"""Targeted-protocol analyses (paper Section 6, Tables 11 and 17) and the
Section 3.2 methodology numbers.

Table 11 asks: of the scanners that contact an HTTP-assigned port at the
/26 Honeytrap networks, what fraction actually speaks HTTP — and what is
the reputation split on each side?  Scanners are counted by source IP
(the paper's "15% of scanners"), protocols are identified by LZR-style
fingerprinting of the first payload.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.detection.classify import Reputation

__all__ = [
    "ProtocolBreakdownRow",
    "protocol_breakdown",
    "MethodologyNumbers",
    "methodology_numbers",
]

#: Honeytrap site prefixes whose traffic feeds the Section 6 analysis
#: (all ports observed, payloads captured; GreyNoise sensors are omitted
#: exactly as the paper omits them).
_HONEYTRAP_PREFIX = "ht-"


@dataclass(frozen=True)
class ProtocolBreakdownRow:
    """One Table 11 row pair: HTTP vs ~HTTP on one port."""

    port: int
    expected: str  # the IANA-assigned protocol ("http")
    matching_pct: float  # % of scanner IPs speaking the assigned protocol
    unexpected_pct: float
    matching_benign_pct: float
    matching_malicious_pct: float
    unexpected_benign_pct: float
    unexpected_malicious_pct: float
    unexpected_protocols: dict[str, float]  # protocol -> % of all scanners


def _first_protocol_by_source(
    dataset: AnalysisDataset, ports: Sequence[int]
) -> dict[int, dict[int, str]]:
    """Per port: each Honeytrap source's *first* fingerprinted protocol.

    One pass over the Honeytrap tables' columns in dataset order, so
    ``np.unique``'s first index is each source's first sighting.
    """
    from repro.analysis.contingency_engine import _Columns, dataset_coder

    coder = dataset_coder(dataset)
    columns = _Columns(
        {
            vantage_id: table
            for vantage_id, table in dataset.tables.items()
            if vantage_id.startswith(_HONEYTRAP_PREFIX)
        },
        coder,
    )
    protocols = coder.fp_lookup()[columns.payload]
    identified = protocols != coder.fp_codes.get(None, -1)
    first_protocols: dict[int, dict[int, str]] = {}
    for port in ports:
        matching = np.flatnonzero(identified & (columns.port == port))
        sources, first = np.unique(columns.src[matching], return_index=True)
        first_protocols[port] = dict(zip(
            sources.tolist(),
            [coder.fp_values[code] for code in protocols[matching[first]].tolist()],
        ))
    return first_protocols


def protocol_breakdown(
    dataset: AnalysisDataset, ports: Sequence[int] = (80, 8080)
) -> list[ProtocolBreakdownRow]:
    """Compute Table 11 over the Honeytrap networks.

    Memoized on table-backed datasets (Table 11 and X4 share one
    computation); each call gets its own rows' protocol mixes.
    """
    ports = tuple(ports)
    rows = dataset.memoized(
        ("protocol_breakdown", ports), lambda: tuple(_protocol_breakdown(dataset, ports))
    )
    return [
        replace(row, unexpected_protocols=dict(row.unexpected_protocols)) for row in rows
    ]


def _protocol_breakdown(
    dataset: AnalysisDataset, ports: Sequence[int]
) -> list[ProtocolBreakdownRow]:
    oracle = dataset.reputation_oracle()
    first_protocols = _first_protocol_by_source(dataset, ports)
    rows: list[ProtocolBreakdownRow] = []
    for port in ports:
        protocol_of_source = first_protocols[port]
        total = len(protocol_of_source)
        if total == 0:
            continue
        matching = {src for src, proto in protocol_of_source.items() if proto == "http"}
        unexpected = set(protocol_of_source) - matching

        def _reputation_pct(sources: set[int], label: Reputation) -> float:
            if not sources:
                return 0.0
            hits = sum(1 for src in sources if oracle.reputation(src) is label)
            return 100.0 * hits / len(sources)

        unexpected_mix: Counter = Counter(
            protocol_of_source[src] for src in unexpected
        )
        rows.append(
            ProtocolBreakdownRow(
                port=port,
                expected="http",
                matching_pct=100.0 * len(matching) / total,
                unexpected_pct=100.0 * len(unexpected) / total,
                matching_benign_pct=_reputation_pct(matching, Reputation.BENIGN),
                matching_malicious_pct=_reputation_pct(matching, Reputation.MALICIOUS),
                unexpected_benign_pct=_reputation_pct(unexpected, Reputation.BENIGN),
                unexpected_malicious_pct=_reputation_pct(unexpected, Reputation.MALICIOUS),
                unexpected_protocols={
                    protocol: 100.0 * count / total
                    for protocol, count in sorted(unexpected_mix.items())
                },
            )
        )
    return rows


@dataclass(frozen=True)
class MethodologyNumbers:
    """The Section 3.2 headline fractions."""

    telnet_non_auth_pct: float  # 34% in the paper
    ssh_non_auth_pct: float  # 24%
    http80_non_exploit_pct: float  # 75%
    distinct_http_payloads_malicious_pct: float  # ~6%


def methodology_numbers(dataset: AnalysisDataset) -> MethodologyNumbers:
    """Recompute the paper's Section 3.2 traffic-intent fractions.

    Authentication-attempt fractions are only measurable at vantage
    points that emulate logins (Cowrie — the GreyNoise honeypots), so
    SSH/Telnet events from first-payload-only frameworks are excluded.
    Distinct payloads are deduplicated after ephemeral-header stripping,
    as everywhere else in the methodology.
    """
    (telnet_total, telnet_auth, ssh_total, ssh_auth,
     http_total, http_exploit, distinct_http) = _methodology_counts(dataset)

    def _pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    distinct_malicious = sum(1 for malicious in distinct_http.values() if malicious)
    return MethodologyNumbers(
        telnet_non_auth_pct=_pct(telnet_total - telnet_auth, telnet_total),
        ssh_non_auth_pct=_pct(ssh_total - ssh_auth, ssh_total),
        http80_non_exploit_pct=_pct(http_total - http_exploit, http_total),
        distinct_http_payloads_malicious_pct=_pct(distinct_malicious, len(distinct_http)),
    )


def _methodology_counts(dataset: AnalysisDataset):
    """One columnar pass, in dataset order, for the Section 3.2 counters:
    ``(telnet, telnet with login, ssh, ssh with login, HTTP/80, malicious
    HTTP/80, {stripped HTTP/80 payload: malicious})``.

    ``distinct_http`` records the maliciousness of each stripped
    payload's *first* matching event.  Fingerprints, stripped forms and
    maliciousness come from the dataset coder's per-payload tables and
    memoized per-event columns.
    """
    from repro.analysis.contingency_engine import dataset_coder

    coder = dataset_coder(dataset)
    counts = [0, 0, 0, 0, 0, 0]
    distinct_http: dict[bytes, bool] = {}
    for vantage_id, table in dataset.tables.items():
        if len(table) == 0:
            continue
        dst_port = table.dst_port
        payload_codes = coder.payload_column(table)
        has_cred = coder.login_flags(table)
        if vantage_id.startswith("gn-"):
            handshake = table.handshake
            for port, slot in ((23, 0), (22, 2)):
                matching = (dst_port == port) & handshake
                counts[slot] += int(np.count_nonzero(matching))
                counts[slot + 1] += int(np.count_nonzero(matching & has_cred))
        stripped = coder.stripped_lookup()[payload_codes]
        http = (
            (dst_port == 80)
            & (stripped >= 0)  # non-empty payloads only
            & (coder.fp_lookup()[payload_codes] == coder.fp_codes.get("http", -1))
        )
        rows = np.flatnonzero(http)
        if rows.size == 0:
            continue
        malicious = coder.malicious(table)[rows]
        counts[4] += int(rows.size)
        counts[5] += int(np.count_nonzero(malicious))
        # Ascending rows: np.unique's first index is each stripped
        # payload's first hit in this table.
        codes, first = np.unique(stripped[rows], return_index=True)
        for code, index in zip(codes.tolist(), first.tolist()):
            distinct_http.setdefault(coder.stripped_values[code], bool(malicious[index]))
    return (*counts, distinct_http)
