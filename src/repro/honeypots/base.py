"""Vantage points and the capture-stack interface.

A *vantage point* is a set of IP addresses in one network+region observed
through one capture framework.  The framework defines what the paper calls
the "collection method" (Table 1): which ports are observed, whether the
L4 handshake completes, whether payloads are recorded, and whether
interactive logins are emulated.

A stack captures whole :class:`~repro.sim.events.IntentBatch` blocks
into a vantage's columnar :class:`~repro.io.table.EventTable`; the
analysis pipeline only ever sees the columns a stack chooses to record —
the stack is the epistemic boundary between what attackers *did* and
what researchers *know*.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.io.table import EventTable
from repro.sim.events import CapturedEvent, IntentBatch, NetworkKind

__all__ = ["CaptureStack", "VantagePoint", "VantageCapture"]


class CaptureStack(abc.ABC):
    """Abstract capture framework.

    Subclasses set :attr:`completes_handshake` and implement
    :meth:`observes` (port filtering) and :meth:`capture_batch_columns`
    (what survives into the dataset); a stack that drops sessions
    overrides :meth:`capture_batch` instead.
    """

    #: Human-readable framework name as it appears in Table 1.
    name: str = "abstract"
    #: Whether the stack completes TCP handshakes (telescopes do not).
    completes_handshake: bool = True

    @abc.abstractmethod
    def observes(self, port: int) -> bool:
        """Whether traffic to ``port`` is recorded at all."""

    def capture_batch(
        self, batch: IntentBatch, src_asns: np.ndarray, table: EventTable
    ) -> int:
        """Capture a whole intent batch into ``table``; returns rows kept.

        One append of the batch's captured columns, so ``table``'s append
        hook sees one notification per call.
        """
        return table.append_view(self.capture_batch_columns(batch, src_asns), 0, len(batch))

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        """The batch's captured columns, one row per session.

        Subclasses map the *whole* batch column-wise (no drops, no
        vantage dependence) to :class:`~repro.io.table.EventTable` chunk
        columns; callers append per-vantage ``[start, stop)`` views of
        them.
        """
        raise NotImplementedError(f"{type(self).__name__} has no column capture")

    def batch_policy_key(self, port: int) -> Optional[tuple]:
        """Hash key identifying this stack's capture transformation.

        Two stack instances with equal keys produce identical
        :meth:`capture_batch_columns` for the same batch, letting the
        engine compute the columns once and share them across every
        vantage in a run (stack instances are per-vantage).  None means
        each vantage's runs go through its own :meth:`capture_batch`.
        """
        return None


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

    def __init__(self, vantage: VantagePoint) -> None:
        self.vantage = vantage
        self.table = EventTable.for_vantage(vantage)

    @property
    def events(self) -> list[CapturedEvent]:
        """Row-object view of the table (built lazily, cached)."""
        return self.table.materialize()

    def record_batch(self, batch: IntentBatch, src_asns: np.ndarray) -> int:
        """Run a whole intent batch through the stack; returns rows kept."""
        if len(batch) == 0 or not self.vantage.stack.observes(batch.dst_port):
            return 0
        return self.vantage.stack.capture_batch(batch, src_asns, self.table)

    def __len__(self) -> int:
        return len(self.table)
