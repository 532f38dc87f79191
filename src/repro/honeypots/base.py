"""Vantage points and the capture-stack interface.

A *vantage point* is a set of IP addresses in one network+region observed
through one capture framework.  The framework defines what the paper calls
the "collection method" (Table 1): which ports are observed, whether the
L4 handshake completes, whether payloads are recorded, and whether
interactive logins are emulated.

The analysis pipeline only ever sees the :class:`CapturedEvent` records a
stack chooses to emit — the stack is the epistemic boundary between what
attackers *did* and what researchers *know*.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.io.table import EventTable
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, IntentBatch, NetworkKind, ScanIntent

__all__ = ["CaptureStack", "VantagePoint", "VantageCapture"]


class CaptureStack(abc.ABC):
    """Abstract capture framework.

    Subclasses set :attr:`completes_handshake` and implement
    :meth:`observes` (port filtering) and :meth:`capture` (what survives
    into the dataset).
    """

    #: Human-readable framework name as it appears in Table 1.
    name: str = "abstract"
    #: Whether the stack completes TCP handshakes (telescopes do not).
    completes_handshake: bool = True

    @abc.abstractmethod
    def observes(self, port: int) -> bool:
        """Whether traffic to ``port`` is recorded at all."""

    @abc.abstractmethod
    def capture(
        self, intent: ScanIntent, vantage: "VantagePoint", src_asn: int
    ) -> Optional[CapturedEvent]:
        """Turn a connection attempt into a dataset record (or drop it)."""

    def capture_batch(
        self,
        batch: IntentBatch,
        vantage: "VantagePoint",
        src_asns: np.ndarray,
        table: EventTable,
    ) -> int:
        """Capture a whole intent batch into ``table``; returns rows kept.

        Stacks that define :meth:`capture_batch_columns` append one
        zero-copy column chunk; everything else (e.g. stochastic wrappers
        like the firewall) falls back to materializing rows through
        :meth:`capture`, so any stack is batch-capable.  Both paths must
        record exactly what the scalar path would.
        """
        columns = self.capture_batch_columns(batch, src_asns)
        if columns is not None:
            return table.append_view(columns, 0, len(batch))
        appended = 0
        for intent, src_asn in zip(batch.intents(), src_asns):
            event = self.capture(intent, vantage, int(src_asn))
            if event is not None:
                table.append_event(event)
                appended += 1
        return appended

    def capture_batch_columns(
        self, batch: IntentBatch, src_asns: np.ndarray
    ) -> Optional[dict]:
        """Vectorized capture: the batch's captured-column dict, or None.

        A stack whose capture transformation is a pure per-row column
        mapping (no drops, no vantage dependence) returns the
        :class:`~repro.io.table.EventTable` chunk columns for the *whole*
        batch; callers append per-vantage ``[start, stop)`` views of it.
        Returning None routes the batch through the scalar fallback.
        """
        return None

    def batch_policy_key(self, port: int) -> Optional[tuple]:
        """Hash key identifying this stack's capture transformation.

        Two stack instances with equal keys produce identical
        :meth:`capture_batch_columns` for the same batch, letting the
        engine compute the columns once and share them across every
        vantage in a run (stack instances are per-vantage).  None means
        the transformation is not shareable (scalar fallback).
        """
        return None

    def _base_event(
        self,
        intent: ScanIntent,
        vantage: "VantagePoint",
        src_asn: int,
        handshake: bool,
        payload: bytes,
        credentials: tuple[tuple[str, str], ...] = (),
    ) -> CapturedEvent:
        # UDP has no handshake, and per the paper's ethics posture the
        # honeypots never *respond* to UDP — but the first datagram's
        # payload still arrives and is recorded (Honeytrap semantics).
        if intent.transport is Transport.UDP:
            handshake = False
        return CapturedEvent(
            vantage_id=vantage.vantage_id,
            network=vantage.network,
            network_kind=vantage.kind,
            region=vantage.region_code,
            timestamp=intent.timestamp,
            src_ip=intent.src_ip,
            src_asn=src_asn,
            dst_ip=intent.dst_ip,
            dst_port=intent.dst_port,
            transport=intent.transport,
            handshake=handshake,
            payload=payload,
            credentials=credentials,
        )


@dataclass(frozen=True)
class VantagePoint:
    """A deployed observation point: IPs + framework + location."""

    vantage_id: str
    network: str
    kind: NetworkKind
    region_code: str
    continent: str
    ips: np.ndarray
    stack: CaptureStack

    def __post_init__(self) -> None:
        if len(self.ips) == 0:
            raise ValueError("a vantage point needs at least one IP")

    @property
    def num_ips(self) -> int:
        return len(self.ips)

    def __str__(self) -> str:
        return (
            f"{self.vantage_id} [{self.network}/{self.region_code}, "
            f"{self.num_ips} IPs, {self.stack.name}]"
        )


class VantageCapture:
    """The event dataset recorded at one vantage point.

    Events live in a columnar :class:`~repro.io.table.EventTable`; the
    ``events`` property materializes (and caches) row objects for
    consumers that still iterate, while column-oriented analyses read
    ``capture.table`` directly.
    """

    def __init__(
        self,
        vantage: VantagePoint,
        events: Optional[Iterable[CapturedEvent]] = None,
    ) -> None:
        self.vantage = vantage
        self.table = EventTable.for_vantage(vantage)
        if events:
            self.extend(events)

    @property
    def events(self) -> list[CapturedEvent]:
        """Row-object view of the table (built lazily, cached)."""
        return self.table.materialize()

    def record_batch(self, batch: IntentBatch, src_asns: np.ndarray) -> int:
        """Run a whole intent batch through the stack; returns rows kept."""
        if len(batch) == 0 or not self.vantage.stack.observes(batch.dst_port):
            return 0
        return self.vantage.stack.capture_batch(
            batch, self.vantage, src_asns, self.table
        )

    def extend(self, events: Iterable[CapturedEvent]) -> None:
        for event in events:
            self.table.append_event(event)

    def __len__(self) -> int:
        return len(self.table)
