"""Transparent upstream firewalls (paper Section 7, "Firewalls").

The paper notes that "it is possible that a network could transparently
drop malicious traffic before [it] reach[es] our honeypots" and leaves
measuring that effect to future work.  :class:`FirewalledStack` models
exactly that confound: a network-edge middlebox that silently drops a
fraction of recognizably-malicious sessions *before* the capture stack
sees them.

Because the firewall sits upstream of the epistemic boundary, analyses on
a firewalled vantage underestimate malicious traffic — the ablation
benchmark (``benchmarks/test_bench_ablations.py``) quantifies by how
much, which is the measurement the paper calls for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.detection.engine import RuleEngine
from repro.honeypots.base import CaptureStack
from repro.io.table import EventTable
from repro.sim.events import IntentBatch
from repro.sim.rng import session_uniforms

__all__ = ["FirewalledStack"]


class FirewalledStack(CaptureStack):
    """Wrap a capture stack behind a transparent malicious-traffic filter.

    ``drop_probability`` is the chance the middlebox recognizes and drops
    one malicious session (login attempts and rule-matching payloads).
    Drops are deterministic per (src, dst, timestamp) so simulations stay
    reproducible.  Benign traffic always passes — real transparent
    filters are tuned for low false positives.
    """

    name = "Firewalled"

    def __init__(
        self,
        inner: CaptureStack,
        drop_probability: float,
        rule_engine: Optional[RuleEngine] = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self._inner = inner
        self._drop_probability = drop_probability
        self._rules = rule_engine or RuleEngine()
        self._seed = seed
        self.name = f"Firewalled({inner.name})"
        self.completes_handshake = inner.completes_handshake
        self.dropped = 0

    @property
    def inner(self) -> CaptureStack:
        return self._inner

    def observes(self, port: int) -> bool:
        return self._inner.observes(port)

    def capture_batch(
        self, batch: IntentBatch, src_asns: np.ndarray, table: EventTable
    ) -> int:
        """Drop the filtered sessions, then capture the kept sub-batch
        through the inner stack (one append per call)."""
        drops = self._drops(batch)
        if drops.any():
            kept = np.flatnonzero(~drops)
            self.dropped += len(batch) - len(kept)
            if not len(kept):
                return 0
            batch, src_asns = batch.take(kept), src_asns[kept]
        return self._inner.capture_batch(batch, src_asns, table)

    def _drops(self, batch: IntentBatch) -> np.ndarray:
        """Per-session drop mask: a malicious session (a login attempt,
        or a payload the rule engine alerts on at this port) is dropped
        when its :func:`~repro.sim.rng.session_uniforms` draw falls
        below the drop probability."""
        if self._drop_probability == 0.0:
            return np.zeros(len(batch), dtype=bool)
        port = batch.dst_port
        is_malicious = self._rules.is_malicious
        drops = np.array([
            bool(credentials) or is_malicious(payload, port)
            for payload, credentials in zip(batch.payloads.tolist(), batch.credentials.tolist())
        ], dtype=bool)
        if self._drop_probability < 1.0 and drops.any():
            rows = np.flatnonzero(drops)
            draws = session_uniforms(
                (self._seed,), batch.src_ips[rows], batch.dst_ips[rows], batch.timestamps[rows]
            )
            drops[rows] = draws < self._drop_probability
        return drops
