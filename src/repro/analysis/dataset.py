"""Analysis-side view of a captured dataset.

:class:`AnalysisDataset` is the boundary between measurement and
analysis: it holds only what the apparatus recorded (honeypot events, the
aggregated telescope dataset, the deployment geometry) and derives the
quantities the paper's tables are built from — per-vantage characteristic
counts, protocol slices, maliciousness labels, and reputation.

It deliberately has no access to the simulator's ground truth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.deployment.fleet import LeakExperiment
from repro.detection.classify import MaliciousnessClassifier, ReputationOracle
from repro.detection.engine import RuleEngine
from repro.honeypots.base import VantagePoint
from repro.honeypots.telescope import TelescopeCapture
from repro.io.table import EventTable
from repro.sim.clock import ObservationWindow
from repro.sim.engine import SimulationResult
from repro.sim.events import CapturedEvent, NetworkKind

__all__ = ["TrafficSlice", "AnalysisDataset", "SLICES"]


@dataclass(frozen=True)
class TrafficSlice:
    """A protocol/port slice of traffic (the paper's comparison axes).

    ``port`` restricts to one destination port (None = all ports);
    ``protocol`` restricts by fingerprinted payload protocol (None = no
    protocol filter).  SSH/Telnet slices are port-based, matching how
    Cowrie collects them; HTTP slices are fingerprint-based, matching the
    Section 6 methodology.
    """

    name: str
    port: Optional[int] = None
    protocol: Optional[str] = None
    #: Interactive slices read credentials; they only exist where the
    #: capture framework emulates logins.
    interactive: bool = False

    def label(self) -> str:
        return self.name


#: The paper's standard slices (Section 3.3).
SLICES: dict[str, TrafficSlice] = {
    "ssh22": TrafficSlice("SSH/22", port=22, interactive=True),
    "telnet23": TrafficSlice("Telnet/23", port=23, interactive=True),
    "http80": TrafficSlice("HTTP/80", port=80, protocol="http"),
    "http_all": TrafficSlice("HTTP/All Ports", protocol="http"),
    "any_all": TrafficSlice("Any/All", None, None),
}


class AnalysisDataset:
    """Queryable captured dataset (honeypots + telescope).

    Backed by per-vantage columnar :class:`~repro.io.table.EventTable`
    objects: ``tables=...`` is the zero-copy path out of the simulator,
    and row events (``events=...``: NDJSON reloads, live honeypots) are
    grouped per vantage into tables when the dataset is built.  Every
    query runs on numpy columns.
    """

    def __init__(
        self,
        events: Optional[Iterable[CapturedEvent]] = None,
        vantages: Sequence[VantagePoint] = (),
        window: Optional[ObservationWindow] = None,
        telescope: Optional[TelescopeCapture] = None,
        leak_experiment: Optional[LeakExperiment] = None,
        rule_engine: Optional[RuleEngine] = None,
        tables: Optional[Mapping[str, EventTable]] = None,
    ) -> None:
        source = tables if events is None else _group_rows(events)
        if source is None:
            raise ValueError("provide events or tables")
        self.tables: dict[str, EventTable] = dict(source)
        self.vantages: list[VantagePoint] = list(vantages)
        self.window = window
        self.telescope = telescope
        self.leak_experiment = leak_experiment
        self.classifier = MaliciousnessClassifier(rule_engine)

        self._vantage_by_id = {vantage.vantage_id: vantage for vantage in self.vantages}
        self._oracle: Optional[ReputationOracle] = None
        self._contingency = None
        self._source_aggregates = None
        self._shard_coder = None
        self._shard_coder_digest = None
        self._reports: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_simulation(cls, result: SimulationResult) -> "AnalysisDataset":
        return cls(
            tables=result.tables(),
            vantages=result.deployment.honeypots,
            window=result.window,
            telescope=result.telescope,
            leak_experiment=result.deployment.leak_experiment,
        )

    # ------------------------------------------------------------------
    # columnar contingency engine
    # ------------------------------------------------------------------

    def contingency(self):
        """The shared columnar contingency engine.

        Built in one pass on first use and cached keyed by a cheap table
        digest, so every §3.3 comparison experiment draws from the same
        precomputed count tables.
        """
        from repro.analysis.contingency_engine import build_engine, dataset_digest

        digest = dataset_digest(self.tables)
        if self._contingency is None or self._contingency.digest != digest:
            self._contingency = build_engine(self)
        return self._contingency

    def memoized(self, key: tuple, build: Callable[[], Any]) -> Any:
        """``build()``, cached keyed by ``key`` (the report and its
        arguments) plus the table digest, like :meth:`contingency`.  The
        cached value is shared by every caller, so ``build`` must return an
        immutable value (tuples of frozen rows) and callers thaw copies.
        """
        from repro.analysis.contingency_engine import dataset_digest

        digest = dataset_digest(self.tables)
        hit = self._reports.get(key)
        if hit is None or hit[0] != digest:
            hit = self._reports[key] = (digest, build())
        return hit[1]

    def source_aggregates(self):
        """Per-source behavioral aggregates, built in one pass and cached
        like :meth:`contingency`."""
        from repro.analysis.contingency_engine import (
            build_source_aggregates,
            dataset_digest,
        )

        digest = dataset_digest(self.tables)
        if self._source_aggregates is None or self._source_aggregates.digest != digest:
            self._source_aggregates = build_source_aggregates(self)
        return self._source_aggregates

    # ------------------------------------------------------------------
    # reputation
    # ------------------------------------------------------------------

    def reputation_oracle(self) -> ReputationOracle:
        """GreyNoise-style actor reputation over the whole dataset."""
        if self._oracle is None:
            oracle = ReputationOracle(classifier=self.classifier)
            self._observe_columns(oracle)
            self._oracle = oracle
        return self._oracle

    def _observe_columns(self, oracle: ReputationOracle) -> None:
        """Feed the oracle straight from columns, with the state
        ``observe_all`` over the rows would leave: ``_seen_ips`` in
        first-sighting order (vantage-major, then row order) holding each
        source's last-sighted AS, and every source with a malicious
        event, read off the coder's per-table maliciousness label."""
        from repro.analysis.contingency_engine import _unique_ints, dataset_coder

        tables = [table for table in self.tables.values() if len(table)]
        if not tables:
            return
        coder = dataset_coder(self)
        coder.intern(tables)
        src_ips = np.concatenate([table.src_ip for table in tables])
        src_asns = np.concatenate([table.src_asn for table in tables])
        flags = np.concatenate([coder.malicious(table) for table in tables])
        sources, first = np.unique(src_ips, return_index=True)
        _sources, from_end = np.unique(src_ips[::-1], return_index=True)
        last = len(src_ips) - 1 - from_end
        order = np.argsort(first)
        oracle._seen_ips.update(
            zip(sources[order].tolist(), src_asns[last[order]].tolist())
        )
        oracle._malicious_ips.update(_unique_ints(src_ips[flags]).tolist())

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------

    def vantage(self, vantage_id: str) -> VantagePoint:
        return self._vantage_by_id[vantage_id]

    def vantages_in(
        self,
        network: Optional[str] = None,
        region: Optional[str] = None,
        kind: Optional[NetworkKind] = None,
    ) -> list[VantagePoint]:
        found = self.vantages
        if network is not None:
            found = [vantage for vantage in found if vantage.network == network]
        if region is not None:
            found = [vantage for vantage in found if vantage.region_code == region]
        if kind is not None:
            found = [vantage for vantage in found if vantage.kind == kind]
        return found

    def neighborhoods(
        self,
        networks: Optional[Sequence[str]] = None,
        vantage_prefix: Optional[str] = None,
    ) -> dict[tuple[str, str], list[VantagePoint]]:
        """Group vantage points into (network, region) neighborhoods.

        ``vantage_prefix`` restricts by vantage-id prefix — e.g. ``"gn-"``
        limits to the GreyNoise fleet, matching the paper's Section 4/5
        analyses, which never mix collection frameworks.
        """
        groups: dict[tuple[str, str], list[VantagePoint]] = defaultdict(list)
        for vantage in self.vantages:
            if networks is not None and vantage.network not in networks:
                continue
            if vantage_prefix is not None and not vantage.vantage_id.startswith(vantage_prefix):
                continue
            groups[(vantage.network, vantage.region_code)].append(vantage)
        return dict(groups)

    # ------------------------------------------------------------------
    # source-IP sets (Tables 8/9)
    # ------------------------------------------------------------------

    def sources_on_port(self, port: int, kind: NetworkKind) -> set[int]:
        """Source IPs observed on ``port`` at honeypots of one network kind."""
        from repro.analysis.contingency_engine import _unique_ints

        parts = [
            table.src_ip[table.dst_port == port]
            for table in self.tables.values()
            if table.network_kind == kind and len(table)
        ]
        return set(_unique_ints(np.concatenate(parts)).tolist()) if parts else set()

    def malicious_sources_on_port(self, port: int, kind: NetworkKind) -> set[int]:
        """Source IPs that sent *malicious* traffic on ``port``/``kind``."""
        from repro.analysis.contingency_engine import _unique_ints, dataset_coder

        coder = dataset_coder(self)
        tables = [
            table for table in self.tables.values()
            if table.network_kind == kind and len(table)
        ]
        coder.intern(tables)
        parts = [
            table.src_ip[(table.dst_port == port) & coder.malicious(table)]
            for table in tables
        ]
        return set(_unique_ints(np.concatenate(parts)).tolist()) if parts else set()


def _group_rows(events: Iterable[CapturedEvent]) -> dict[str, EventTable]:
    """Row events as per-vantage tables, vantages in first-sighting order
    and each vantage's rows in input order."""
    grouped: dict[str, list[CapturedEvent]] = defaultdict(list)
    for event in events:
        grouped[event.vantage_id].append(event)
    return {
        vantage_id: EventTable.from_events(rows) for vantage_id, rows in grouped.items()
    }
