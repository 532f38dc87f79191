"""Event schema shared by the simulator, capture stacks, and analyses.

Two record types separate *what an actor tried to do* from *what a vantage
point observed*:

* :class:`ScanIntent` — a scanner's attempt against one destination:
  the wire payload it would send once a handshake completes and, for
  interactive SSH/Telnet sessions, the credential sequence it would try.
  Intents are internal to the simulator.

* :class:`CapturedEvent` — what the vantage point's capture stack actually
  recorded.  This is the only thing the analysis pipeline ever sees, which
  enforces the paper's epistemic situation: a telescope event has no
  payload, a Honeytrap event has one payload and no credentials, a Cowrie
  event has credentials.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.net.packets import Transport

__all__ = ["NetworkKind", "ScanIntent", "CapturedEvent", "Credential", "IntentBatch"]


class NetworkKind(str, enum.Enum):
    """The three network types the paper contrasts."""

    CLOUD = "cloud"
    EDU = "edu"
    TELESCOPE = "telescope"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Credential:
    """One username/password attempt in an interactive login session."""

    username: str
    password: str

    def as_tuple(self) -> tuple[str, str]:
        return (self.username, self.password)


@dataclass(frozen=True, slots=True)
class ScanIntent:
    """One connection attempt by one scanner toward one destination.

    ``protocol`` names the application protocol the scanner intends to
    speak (which need not match the IANA assignment of ``dst_port`` —
    Section 6 of the paper).  ``payload`` is the first application-layer
    message; ``credentials`` is the login sequence for interactive
    protocols.  Either may be empty (a bare SYN scan has both empty).
    """

    timestamp: float
    src_ip: int
    dst_ip: int
    dst_port: int
    transport: Transport = Transport.TCP
    protocol: str = ""
    payload: bytes = b""
    credentials: tuple[Credential, ...] = ()
    #: Shell commands the actor would run after a successful login
    #: (recorded only by interactive honeypots that accept the login).
    commands: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        if not 0 <= self.dst_port <= 65535:
            raise ValueError(f"invalid dst_port {self.dst_port}")


@dataclass(frozen=True)
class IntentBatch:
    """A columnar block of scan intents sharing one (campaign, port) plan.

    This is the batch-first counterpart of :class:`ScanIntent`:
    ``dst_port``, ``transport``, and ``protocol`` are constant across the
    batch (they come from one :class:`~repro.scanners.base.PortPlan`);
    everything per-session lives in parallel arrays.  ``credentials``
    holds tuples of plain ``(username, password)`` pairs — the wire-level
    representation capture stacks record — and :meth:`intents` wraps them
    back into :class:`Credential` objects when materializing rows.
    """

    dst_port: int
    transport: Transport
    protocol: str
    timestamps: np.ndarray  # float64, hours into the window
    src_ips: np.ndarray  # int64
    dst_ips: np.ndarray  # int64
    payloads: np.ndarray  # object: bytes
    credentials: np.ndarray  # object: tuple[tuple[str, str], ...]
    commands: np.ndarray  # object: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.timestamps)

    def slice(self, start: int, stop: int) -> "IntentBatch":
        """A contiguous zero-copy sub-batch (views, not copies)."""
        return IntentBatch(
            dst_port=self.dst_port,
            transport=self.transport,
            protocol=self.protocol,
            timestamps=self.timestamps[start:stop],
            src_ips=self.src_ips[start:stop],
            dst_ips=self.dst_ips[start:stop],
            payloads=self.payloads[start:stop],
            credentials=self.credentials[start:stop],
            commands=self.commands[start:stop],
        )

    def take(self, indices: np.ndarray) -> "IntentBatch":
        """A sub-batch selected by an index array."""
        return IntentBatch(
            dst_port=self.dst_port,
            transport=self.transport,
            protocol=self.protocol,
            timestamps=self.timestamps[indices],
            src_ips=self.src_ips[indices],
            dst_ips=self.dst_ips[indices],
            payloads=self.payloads[indices],
            credentials=self.credentials[indices],
            commands=self.commands[indices],
        )

    def intents(self) -> Iterator[ScanIntent]:
        """Materialize row-level intents (for the live replayer and the
        packet-level examples, which send one session at a time)."""
        for index in range(len(self.timestamps)):
            pairs = self.credentials[index]
            yield ScanIntent(
                timestamp=float(self.timestamps[index]),
                src_ip=int(self.src_ips[index]),
                dst_ip=int(self.dst_ips[index]),
                dst_port=self.dst_port,
                transport=self.transport,
                protocol=self.protocol,
                payload=self.payloads[index],
                credentials=tuple(Credential(*pair) for pair in pairs),
                commands=self.commands[index],
            )


@dataclass(frozen=True, slots=True)
class CapturedEvent:
    """A vantage point's record of one observed connection attempt.

    The fields mirror what the paper's apparatus can actually know:
    ``src_asn`` comes from an IP→AS lookup (Section 3.3 identifies actors
    by AS), ``handshake`` says whether the L4 handshake completed, and the
    application-layer fields are empty whenever the capture method cannot
    observe them.
    """

    vantage_id: str
    network: str
    network_kind: NetworkKind
    region: str
    timestamp: float
    src_ip: int
    src_asn: int
    dst_ip: int
    dst_port: int
    transport: Transport = Transport.TCP
    handshake: bool = False
    payload: bytes = b""
    credentials: tuple[tuple[str, str], ...] = ()
    #: Post-login shell commands (Cowrie-style command capture); empty
    #: unless the capture stack emulated a successful login.
    commands: tuple[str, ...] = ()

    @property
    def has_payload(self) -> bool:
        return bool(self.payload)

    @property
    def attempted_login(self) -> bool:
        """True when the session attempted at least one credential pair."""
        return bool(self.credentials)

    @property
    def logged_in(self) -> bool:
        """True when the honeypot accepted a login (commands observable)."""
        return bool(self.commands)
