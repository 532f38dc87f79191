"""Honeytrap-style first-payload capture.

The education-network and author-deployed cloud honeypots "use the
Honeytrap framework ... configure[d] to collect the first UDP payload or
the first TCP payload after completing a TCP handshake" (Section 3.1).
Honeytrap observes *all* ports, which is what enables the Section 6
unexpected-protocol analysis.

For the search-engine leak experiment the authors additionally emulate
SSH/22, Telnet/23, and HTTP/80 services; ``interactive_ports`` enables
Cowrie-like credential capture on those ports for that deployment.
"""

from __future__ import annotations

import numpy as np

from repro.honeypots.base import CaptureStack
from repro.io.table import TRANSPORT_CODES
from repro.net.packets import Transport
from repro.sim.events import IntentBatch

__all__ = ["HoneytrapStack"]


class HoneytrapStack(CaptureStack):
    """All-port, first-payload capture with optional interactive ports."""

    name = "Honeytrap"
    completes_handshake = True

    def __init__(self, interactive_ports: frozenset[int] = frozenset()) -> None:
        self._interactive_ports = frozenset(interactive_ports)

    def observes(self, port: int) -> bool:
        return True

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        interactive = batch.dst_port in self._interactive_ports
        # UDP has no handshake, and per the paper's ethics posture the
        # honeypots never *respond* to UDP — but the first datagram's
        # payload still arrives and is recorded (Honeytrap semantics).
        return {
            "timestamps": batch.timestamps,
            "src_ip": batch.src_ips,
            "src_asn": src_asns,
            "dst_ip": batch.dst_ips,
            "dst_port": batch.dst_port,
            "transport_code": TRANSPORT_CODES[batch.transport],
            "handshake": batch.transport is Transport.TCP,
            "payload": batch.payloads,
            "credentials": batch.credentials if interactive else (),
            "commands": (),
        }

    def batch_policy_key(self, port: int) -> tuple:
        return ("honeytrap", port in self._interactive_ports)
