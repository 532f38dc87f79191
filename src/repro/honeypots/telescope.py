"""Network-telescope capture: headers only, no handshake, aggregated.

"Network telescopes/darknets typically do not host any services, receive
traffic on all ports and IP addresses, and only record the first packet
of a connection (i.e., they do not complete the TCP layer 4 handshake)."
(Section 3.1)

Because a telescope spans orders of magnitude more addresses than a
honeypot fleet (Orion: 475K IPs), raw per-packet records would dominate
memory without adding analytical power: every analysis the paper runs on
telescope data needs only (a) per-port source-IP hit counts, (b) per-port
per-destination unique-source counts (Figure 1), and (c) per-source AS
attribution.  :class:`TelescopeCapture` therefore aggregates at capture
time — exactly the flow-level aggregation real telescope pipelines apply.

The plain :class:`TelescopeStack` captures intent batches like every
other stack (header-only columns, no payloads), so small-scale tests can
run a telescope vantage through the same capture path as a honeypot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.honeypots.base import CaptureStack
from repro.io.table import TRANSPORT_CODES
from repro.sim.events import IntentBatch

__all__ = ["TelescopeStack", "TelescopeCapture"]


class TelescopeStack(CaptureStack):
    """Header-only capture on every port; never completes handshakes."""

    name = "Telescope"
    completes_handshake = False

    def observes(self, port: int) -> bool:
        return True

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        # Header-only columns: the application-layer fields never survive.
        return {
            "timestamps": batch.timestamps,
            "src_ip": batch.src_ips,
            "src_asn": src_asns,
            "dst_ip": batch.dst_ips,
            "dst_port": batch.dst_port,
            "transport_code": TRANSPORT_CODES[batch.transport],
            "handshake": False,
            "payload": b"",
            "credentials": (),
            "commands": (),
        }

    def batch_policy_key(self, port: int) -> tuple:
        return ("telescope",)


@dataclass
class TelescopeCapture:
    """Aggregated telescope dataset for one telescope vantage.

    ``port_src_hits[port][src_ip]`` counts first-packets; ``asn_of_src``
    records the IP→AS attribution the analysis would derive from routing
    data; ``port_dst_unique[port]`` counts distinct sources per
    destination index (aligned with ``vantage.ips``), which is the series
    Figure 1 plots.
    """

    vantage: VantagePoint
    port_src_hits: dict[int, Counter] = field(default_factory=dict)
    asn_of_src: dict[int, int] = field(default_factory=dict)
    _port_dst_unique: dict[int, np.ndarray] = field(default_factory=dict)

    def _dst_array(self, port: int) -> np.ndarray:
        array = self._port_dst_unique.get(port)
        if array is None:
            array = np.zeros(self.vantage.num_ips, dtype=np.int64)
            self._port_dst_unique[port] = array
        return array

    def record_source_hits(
        self,
        port: int,
        source_ips: np.ndarray,
        source_asns: np.ndarray,
        hit_counts: np.ndarray,
    ) -> None:
        """Credit ``hit_counts[i]`` first-packets to ``source_ips[i]``."""
        counter = self.port_src_hits.setdefault(port, Counter())
        for src, asn, hits in zip(source_ips, source_asns, hit_counts):
            if hits <= 0:
                continue
            counter[int(src)] += int(hits)
            self.asn_of_src[int(src)] = int(asn)

    def record_destination_sources(self, port: int, distinct_per_dst: np.ndarray) -> None:
        """Add per-destination distinct-source counts (Figure 1 series)."""
        array = self._dst_array(port)
        if len(distinct_per_dst) != len(array):
            raise ValueError("distinct_per_dst misaligned with telescope IPs")
        array += np.asarray(distinct_per_dst, dtype=np.int64)

    # ----- analysis-side accessors -----

    def sources_on_port(self, port: int) -> set[int]:
        """All source IPs seen sending to ``port``."""
        return set(self.port_src_hits.get(port, ()))

    def ports(self) -> list[int]:
        return sorted(self.port_src_hits)

    def as_counts(self, port: int) -> Counter:
        """Per-AS total first-packet counts on ``port``."""
        totals: Counter = Counter()
        for src, hits in self.port_src_hits.get(port, Counter()).items():
            totals[self.asn_of_src[src]] += hits
        return totals

    def unique_sources_per_destination(self, port: int) -> np.ndarray:
        """Distinct-source count per telescope IP (index-aligned)."""
        return self._dst_array(port).copy()

    def total_unique_sources(self) -> int:
        sources: set[int] = set()
        for counter in self.port_src_hits.values():
            sources.update(counter)
        return len(sources)

    def total_unique_ases(self) -> int:
        return len({self.asn_of_src[src] for counter in self.port_src_hits.values() for src in counter})
