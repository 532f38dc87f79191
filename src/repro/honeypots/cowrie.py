"""Cowrie-style interactive SSH/Telnet capture.

GreyNoise "uses Cowrie, an interactive honeypot, to collect SSH (ports
22, 2222) and Telnet (23, 2323) attempted login credentials" (Section
3.1).  The essential capture semantics: the handshake and protocol banner
exchange complete, and every username/password attempt in the session is
recorded alongside the client's first protocol message.
"""

from __future__ import annotations

import numpy as np

from repro.honeypots.base import CaptureStack
from repro.io.table import TRANSPORT_CODES
from repro.net.packets import Transport
from repro.sim.events import IntentBatch
from repro.sim.rng import session_uniforms

__all__ = ["CowrieStack", "COWRIE_PORTS"]

#: Ports on which GreyNoise runs Cowrie.
COWRIE_PORTS: frozenset[int] = frozenset({22, 2222, 23, 2323})


class CowrieStack(CaptureStack):
    """Interactive credential-capturing stack for SSH/Telnet ports.

    ``ports`` restricts which ports the instance listens on (defaults to
    the four Cowrie ports).  Credentials are recorded verbatim; sessions
    that never attempt a login still yield an event with the client's
    banner/negotiation payload — that distinction is what lets the
    analysis measure the fraction of non-authentication traffic
    (Section 3.2).

    Like real Cowrie, the honeypot *accepts* a fraction of login attempts
    (``accept_login_probability``, deterministic per session) and then
    records the fake-shell commands the actor runs — the post-compromise
    behavior Cowrie exists to collect.
    """

    name = "Cowrie"
    completes_handshake = True

    def __init__(
        self,
        ports: frozenset[int] = COWRIE_PORTS,
        accept_login_probability: float = 0.35,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= accept_login_probability <= 1.0:
            raise ValueError("accept_login_probability must be in [0, 1]")
        self._ports = frozenset(ports)
        self._accept_probability = accept_login_probability
        self._seed = seed

    def observes(self, port: int) -> bool:
        return port in self._ports

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        """Credentials verbatim; commands only for accepted logins.

        Only sessions that both tried credentials and carry a command
        sequence draw the deterministic accept-login uniform,
        :func:`~repro.sim.rng.session_uniforms` under the prefix
        ``(seed, "cowrie-login")``.
        """
        count = len(batch)
        credentials = batch.credentials
        batch_commands = batch.commands
        commands: object = ()
        if self._accept_probability > 0.0 and count:
            candidates = np.flatnonzero(
                credentials.astype(bool) & batch_commands.astype(bool)
            )
            if len(candidates):
                if self._accept_probability >= 1.0:
                    accepted = candidates
                else:
                    draws = session_uniforms(
                        (self._seed, "cowrie-login"),
                        batch.src_ips[candidates],
                        batch.dst_ips[candidates],
                        batch.timestamps[candidates],
                    )
                    accepted = candidates[draws < self._accept_probability]
                column = np.empty(count, dtype=object)
                column.fill(())
                column[accepted] = batch_commands[accepted]
                commands = column
        return {
            "timestamps": batch.timestamps,
            "src_ip": batch.src_ips,
            "src_asn": src_asns,
            "dst_ip": batch.dst_ips,
            "dst_port": batch.dst_port,
            "transport_code": TRANSPORT_CODES[batch.transport],
            "handshake": batch.transport is Transport.TCP,
            "payload": batch.payloads,
            "credentials": credentials,
            "commands": commands,
        }

    def batch_policy_key(self, port: int) -> tuple:
        return ("cowrie", self._accept_probability, self._seed)
