"""GreyNoise-style sensor: Cowrie on SSH/Telnet ports, handshake+payload elsewhere.

"GreyNoise uses Cowrie ... to collect SSH (ports 22, 2222) and Telnet
(23, 2323) attempted login credentials.  For all other ports, GreyNoise
completes the TCP or TLS handshake and records only the first received
payload.  Each GreyNoise honeypot hosts public vulnerable-looking
protocol-assigned services on at least seven popular ports." (Section 3.1)
"""

from __future__ import annotations

import numpy as np

from repro.honeypots.base import CaptureStack
from repro.honeypots.cowrie import COWRIE_PORTS, CowrieStack
from repro.io.table import TRANSPORT_CODES
from repro.net.packets import Transport
from repro.sim.events import IntentBatch

__all__ = ["GreyNoiseStack", "GREYNOISE_DEFAULT_PORTS"]

#: The "at least seven popular ports" a GreyNoise honeypot exposes.
GREYNOISE_DEFAULT_PORTS: frozenset[int] = frozenset(
    {21, 22, 23, 25, 80, 443, 2222, 2323, 7547, 8080, 445}
)


class GreyNoiseStack(CaptureStack):
    """Composite sensor matching GreyNoise's published capture behavior."""

    name = "GreyNoise"
    completes_handshake = True

    def __init__(self, ports: frozenset[int] = GREYNOISE_DEFAULT_PORTS) -> None:
        if not ports:
            raise ValueError("a GreyNoise sensor must expose at least one port")
        self._ports = frozenset(ports)
        self._cowrie = CowrieStack(self._ports & COWRIE_PORTS)

    @property
    def ports(self) -> frozenset[int]:
        return self._ports

    def observes(self, port: int) -> bool:
        return port in self._ports

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        if self._cowrie.observes(batch.dst_port):
            return self._cowrie.capture_batch_columns(batch, src_asns)
        # Non-Cowrie port: handshake completes, first payload only, no
        # interactive login emulation (credentials are never observed).
        return {
            "timestamps": batch.timestamps,
            "src_ip": batch.src_ips,
            "src_asn": src_asns,
            "dst_ip": batch.dst_ips,
            "dst_port": batch.dst_port,
            "transport_code": TRANSPORT_CODES[batch.transport],
            "handshake": batch.transport is Transport.TCP,
            "payload": batch.payloads,
            "credentials": (),
            "commands": (),
        }

    def batch_policy_key(self, port: int) -> tuple:
        if self._cowrie.observes(port):
            return self._cowrie.batch_policy_key(port)
        return ("greynoise",)
