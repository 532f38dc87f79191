"""Cowrie-style interactive SSH/Telnet capture.

GreyNoise "uses Cowrie, an interactive honeypot, to collect SSH (ports
22, 2222) and Telnet (23, 2323) attempted login credentials" (Section
3.1).  The essential capture semantics: the handshake and protocol banner
exchange complete, and every username/password attempt in the session is
recorded alongside the client's first protocol message.
"""

from __future__ import annotations

from dataclasses import replace
from hashlib import blake2b
from typing import Optional

import numpy as np

from repro.honeypots.base import CaptureStack, VantagePoint
from repro.io.table import TRANSPORT_CODES
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, IntentBatch, ScanIntent
from repro.sim.rng import stable_hash64

__all__ = ["CowrieStack", "COWRIE_PORTS"]

#: Ports on which GreyNoise runs Cowrie.
COWRIE_PORTS: frozenset[int] = frozenset({22, 2222, 23, 2323})


def _rounded_str(value: float) -> str:
    """``str(round(value, 6))`` for a non-negative float, from one
    fixed-point format.

    From 1e-4 up to 1e15 the shortest repr of the float nearest a
    six-place decimal is that decimal without trailing zeros (distinct
    six-place decimals are 1e-6 apart, far wider than a double's
    spacing), so one ``.6f`` format gives the same text.  Outside that
    range repr switches to exponent notation; those values take the
    direct path.
    """
    if not 1e-4 <= value < 1e15:
        return str(round(value, 6))
    text = format(value, ".6f").rstrip("0")
    return text + "0" if text[-1] == "." else text


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

    def _accepts_login_at(self, src_ip: int, dst_ip: int, timestamp: float) -> bool:
        if self._accept_probability >= 1.0:
            return True
        if self._accept_probability <= 0.0:
            return False
        draw = stable_hash64(
            self._seed, "cowrie-login", src_ip, dst_ip, round(timestamp, 6)
        ) / float(1 << 64)
        return draw < self._accept_probability

    def _accepts_login(self, intent: ScanIntent) -> bool:
        return self._accepts_login_at(intent.src_ip, intent.dst_ip, intent.timestamp)

    def capture(
        self, intent: ScanIntent, vantage: VantagePoint, src_asn: int
    ) -> Optional[CapturedEvent]:
        credentials = tuple(credential.as_tuple() for credential in intent.credentials)
        commands: tuple[str, ...] = ()
        if credentials and intent.commands and self._accepts_login(intent):
            commands = intent.commands
        event = self._base_event(
            intent,
            vantage,
            src_asn,
            handshake=True,
            payload=intent.payload,
            credentials=credentials,
        )
        if commands:
            event = replace(event, commands=commands)
        return event

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        """Vectorized capture: credentials verbatim, commands per login.

        Only sessions that both tried credentials and carry a command
        sequence run the deterministic accept-login hash — the scalar
        path's exact gate.  The candidates are selected column-wise, and
        one tight loop hashes exactly the bytes :func:`stable_hash64`
        hashes for ``(seed, "cowrie-login", src, dst, round(t, 6))``.
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
                    accepted = candidates[self._accepts_logins(
                        batch.src_ips[candidates].tolist(),
                        batch.dst_ips[candidates].tolist(),
                        batch.timestamps[candidates].tolist(),
                    )]
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

    def _accepts_logins(self, src_ips: list, dst_ips: list, timestamps: list) -> np.ndarray:
        """:meth:`_accepts_login_at` over parallel lists, as a bool array."""
        prefix = f"{self._seed}\x1fcowrie-login\x1f"
        digests = b"".join([
            blake2b(f"{prefix}{src}\x1f{dst}\x1f{stamp}".encode("utf-8"), digest_size=8).digest()
            for src, dst, stamp in zip(src_ips, dst_ips, map(_rounded_str, timestamps))
        ])
        scale = float(1 << 64)
        threshold = self._accept_probability
        return np.array(
            [value / scale < threshold for value in np.frombuffer(digests, ">u8").tolist()],
            dtype=bool,
        )

    def batch_policy_key(self, port: int) -> tuple:
        return ("cowrie", self._accept_probability, self._seed)
