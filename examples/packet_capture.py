#!/usr/bin/env python3
"""Packet-level pipeline: intents → wire packets → pcap-lite → flows → Table 11.

Everything else in this repository works at the event level; this example
drops to the wire.  It expands a small simulated campaign into raw TCP
packets, writes them in the pcap-lite binary format, reads them back,
reassembles flows through the TCP state machine (once as a responding
honeypot, once as a silent telescope), and fingerprints the recovered
first payloads — a miniature Section 6 analysis from packets alone.

Run:  python examples/packet_capture.py
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro.detection.fingerprint import fingerprint
from repro.io.pcaplite import intents_to_packets, packets_to_flows, read_packets, write_packets
from repro.scanners.base import PortPlan


def build_intents():
    rng = np.random.default_rng(3)
    plans = [
        PortPlan(80, "http", 1.0, http_payloads=("root-get", "log4shell"),
                 http_weights=(0.7, 0.3)),
        PortPlan(80, "tls", 1.0),       # the unexpected protocol
        PortPlan(80, "telnet", 1.0),    # another one
        PortPlan(8080, "http", 1.0, http_payloads=("gpon-rce",), http_weights=(1.0,)),
    ]
    intents = []
    for offset, plan in enumerate(plans):
        # Six sessions per plan, the plans taking turns every 0.01 h.
        index = offset + len(plans) * np.arange(6)
        batch = plan.build_intent_batch(rng, 0.5 + index * 0.01, 0x0A000001 + index,
                                        np.full(6, 0xC0A80001))
        intents.extend(batch.intents())
    return sorted(intents, key=lambda intent: intent.timestamp)


def main() -> None:
    intents = build_intents()
    packets = list(intents_to_packets(intents))
    path = Path(tempfile.gettempdir()) / "cloudwatching_capture.cwp"
    count = write_packets(path, packets)
    print(f"expanded {len(intents)} sessions into {count} packets "
          f"({path.stat().st_size} bytes at {path})")

    replayed = list(read_packets(path))
    assert replayed == packets, "pcap-lite must round-trip exactly"

    honeypot_flows = packets_to_flows(replayed, server_responds=True)
    telescope_flows = packets_to_flows(replayed, server_responds=False)

    protocols = Counter(
        fingerprint(flow.first_payload) or "none" for flow in honeypot_flows
    )
    print("\nhoneypot view (handshakes completed):")
    total = sum(protocols.values())
    for protocol, seen in protocols.most_common():
        print(f"  {protocol:8s} {seen:3d} flows ({100.0 * seen / total:.0f}%)")
    unexpected = sum(seen for protocol, seen in protocols.items()
                     if protocol not in ("http", "none"))
    print(f"  => {100.0 * unexpected / total:.0f}% of port-80/8080 flows are not HTTP "
          "(the Section 6 blind spot)")

    with_payloads = sum(1 for flow in telescope_flows if flow.first_payload)
    print(f"\ntelescope view: {len(telescope_flows)} flows, {with_payloads} payloads — "
          "a telescope cannot run this analysis at all")


if __name__ == "__main__":
    main()
