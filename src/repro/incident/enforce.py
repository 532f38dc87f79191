"""The enforcement side of the closed loop.

:class:`ActiveBlocklist` is the object the simulation engine consults
mid-run: given the columns of an already-built intent batch, it answers
"which of these rows survive the currently active blocks?".  Entries
activate at an event-time hour (``active_from``), so traffic the fleet
saw *before* an entry was emitted is never retroactively erased — that
gap is exactly the detection latency the X5 experiment measures.

Enforcement is applied **after** every RNG draw for a batch (the engine
filters the finished batch), so the enforced run consumes the identical
random stream as the baseline and its capture set is, by construction,
the baseline's minus the blocked rows.  That identity is what lets the
closed-loop experiment predict blocked volumes analytically and then
cross-check the prediction against a real enforced re-run.

The class is deliberately dependency-light (numpy only) and duck-typed
from the engine's side: anything with ``keep_mask(timestamps, src_asns,
src_ips)`` can enforce.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

__all__ = ["ActiveBlocklist"]


class ActiveBlocklist:
    """Timed ASN + source-IP blocks, vectorized for batch filtering."""

    def __init__(
        self,
        asn_entries: Iterable[tuple[int, float]] = (),
        ip_entries: Iterable[tuple[int, float]] = (),
    ) -> None:
        self._asns, self._asn_from = self._pack(asn_entries)
        self._ips, self._ip_from = self._pack(ip_entries)

    @staticmethod
    def _pack(entries: Iterable[tuple[int, float]]):
        """Dedupe (earliest activation wins) and sort for searchsorted."""
        earliest: dict[int, float] = {}
        for value, active_from in entries:
            value = int(value)
            active_from = float(active_from)
            if value not in earliest or active_from < earliest[value]:
                earliest[value] = active_from
        values = np.asarray(sorted(earliest), dtype=np.int64)
        starts = np.asarray([earliest[int(v)] for v in values], dtype=np.float64)
        return values, starts

    @classmethod
    def from_entries(cls, entries) -> "ActiveBlocklist":
        """Build from runbook :class:`BlocklistEntry` objects."""
        return cls(asn_entries=[(entry.asn, entry.active_from) for entry in entries])

    def __len__(self) -> int:
        return len(self._asns) + len(self._ips)

    @property
    def asns(self) -> np.ndarray:
        return self._asns

    @property
    def ips(self) -> np.ndarray:
        return self._ips

    def _blocked(
        self,
        values: np.ndarray,
        keys: np.ndarray,
        starts: np.ndarray,
        timestamps: np.ndarray,
    ) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(len(values), dtype=bool)
        positions = np.searchsorted(keys, values)
        clipped = np.minimum(positions, len(keys) - 1)
        hit = keys[clipped] == values
        active = timestamps >= starts[clipped]
        return hit & active

    def blocked_mask(
        self,
        timestamps: np.ndarray,
        src_asns: np.ndarray,
        src_ips: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True where a row is blocked by an entry active at its time."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        blocked = self._blocked(
            np.asarray(src_asns, dtype=np.int64), self._asns, self._asn_from, timestamps
        )
        if src_ips is not None and len(self._ips):
            blocked |= self._blocked(
                np.asarray(src_ips, dtype=np.int64), self._ips, self._ip_from, timestamps
            )
        return blocked

    def keep_mask(
        self,
        timestamps: np.ndarray,
        src_asns: np.ndarray,
        src_ips: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The complement the engine uses to filter a batch."""
        return ~self.blocked_mask(timestamps, src_asns, src_ips)
