"""Analysis-side view of a captured dataset.

:class:`AnalysisDataset` is the boundary between measurement and
analysis: it holds only what the apparatus recorded (honeypot events, the
aggregated telescope dataset, the deployment geometry) and derives the
quantities the paper's tables are built from — per-vantage characteristic
counters, protocol slices, maliciousness labels, and reputation.

It deliberately has no access to the simulator's ground truth.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.deployment.fleet import LeakExperiment
from repro.detection.classify import MaliciousnessClassifier, ReputationOracle
from repro.detection.engine import RuleEngine
from repro.detection.fingerprint import fingerprint
from repro.honeypots.base import VantagePoint
from repro.honeypots.telescope import TelescopeCapture
from repro.io.table import EventTable
from repro.scanners.payloads import strip_ephemeral_headers
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

    Backed either by row events (``events=...``, the generic path used
    when loading NDJSON datasets) or by per-vantage columnar
    :class:`~repro.io.table.EventTable` objects (``tables=...``, the
    zero-copy path out of the simulator).  With tables, row objects are
    materialized lazily per vantage, and set/count queries run on numpy
    columns directly.
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
        shard_tables: Optional[Sequence[Mapping[str, EventTable]]] = None,
        map_workers: int = 1,
    ) -> None:
        if events is None and tables is None:
            raise ValueError("provide events or tables")
        self.tables: Optional[dict[str, EventTable]] = (
            dict(tables) if tables is not None else None
        )
        # Per-shard table views of the same rows (merge order), set by the
        # orchestrator so map-reduce drivers can regroup work shard-wise;
        # ``map_workers`` is their fan-out budget.
        self.shard_tables: Optional[list[dict[str, EventTable]]] = (
            [dict(shard) for shard in shard_tables]
            if shard_tables is not None else None
        )
        self.map_workers = int(map_workers)
        self._events: Optional[list[CapturedEvent]] = (
            list(events) if events is not None else None
        )
        self.vantages: list[VantagePoint] = list(vantages)
        self.window = window
        self.telescope = telescope
        self.leak_experiment = leak_experiment
        self.classifier = MaliciousnessClassifier(rule_engine)

        self._by_vantage_cache: Optional[dict[str, list[CapturedEvent]]] = None
        self._vantage_by_id = {vantage.vantage_id: vantage for vantage in self.vantages}
        self._fingerprint_cache: dict[bytes, Optional[str]] = {}
        self._malicious_cache: dict[tuple[bytes, int, bool], bool] = {}
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
    def from_simulation(
        cls,
        result: SimulationResult,
        shard_tables: Optional[Sequence[Mapping[str, EventTable]]] = None,
        map_workers: int = 1,
    ) -> "AnalysisDataset":
        return cls(
            tables=result.tables(),
            vantages=result.deployment.honeypots,
            window=result.window,
            telescope=result.telescope,
            leak_experiment=result.deployment.leak_experiment,
            shard_tables=shard_tables,
            map_workers=map_workers,
        )

    # ------------------------------------------------------------------
    # row/table views
    # ------------------------------------------------------------------

    @property
    def events(self) -> list[CapturedEvent]:
        """All honeypot events as row objects (materialized lazily)."""
        if self._events is None:
            rows: list[CapturedEvent] = []
            for table in self.tables.values():
                rows.extend(table.materialize())
            self._events = rows
        return self._events

    @events.setter
    def events(self, events: Iterable[CapturedEvent]) -> None:
        """Replace the row view (tests build datasets this way); any
        columnar backing no longer describes the rows, so drop it."""
        self._events = list(events)
        self.tables = None
        self.shard_tables = None
        self._by_vantage_cache = None
        self._oracle = None
        self._contingency = None
        self._source_aggregates = None
        self._shard_coder = None
        self._shard_coder_digest = None
        self._reports = {}

    def _by_vantage(self) -> dict[str, list[CapturedEvent]]:
        if self._by_vantage_cache is None:
            grouped: dict[str, list[CapturedEvent]] = defaultdict(list)
            for event in self.events:
                grouped[event.vantage_id].append(event)
            self._by_vantage_cache = grouped
        return self._by_vantage_cache

    # ------------------------------------------------------------------
    # columnar contingency engine
    # ------------------------------------------------------------------

    def contingency(self):
        """The shared columnar contingency engine (table-backed only).

        Built shard-wise on first use and cached keyed by a cheap table
        digest, so every §3.3 comparison experiment draws from the same
        precomputed count matrices.  Returns ``None`` for row-backed
        datasets — callers fall back to the row-wise path.
        """
        if self.tables is None:
            return None
        from repro.analysis.contingency_engine import build_engine, dataset_digest

        digest = dataset_digest(self.tables)
        if self._contingency is None or self._contingency.digest != digest:
            self._contingency = build_engine(self)
        return self._contingency

    def memoized(self, key: tuple, build: Callable[[], Any]) -> Any:
        """``build()``, cached on a table-backed dataset keyed by ``key``
        (the report and its arguments) plus the table digest, like
        :meth:`contingency`.  Row-backed datasets always build.  The cached
        value is shared by every caller, so ``build`` must return an
        immutable value (tuples of frozen rows) and callers thaw copies.
        """
        if self.tables is None:
            return build()
        from repro.analysis.contingency_engine import dataset_digest

        digest = dataset_digest(self.tables)
        hit = self._reports.get(key)
        if hit is None or hit[0] != digest:
            hit = self._reports[key] = (digest, build())
        return hit[1]

    def source_aggregates(self):
        """Per-source behavioral aggregates (table-backed only), built
        shard-wise and cached like :meth:`contingency`."""
        if self.tables is None:
            return None
        from repro.analysis.contingency_engine import (
            build_source_aggregates,
            dataset_digest,
        )

        digest = dataset_digest(self.tables)
        if self._source_aggregates is None or self._source_aggregates.digest != digest:
            self._source_aggregates = build_source_aggregates(self)
        return self._source_aggregates

    # ------------------------------------------------------------------
    # event-level classification
    # ------------------------------------------------------------------

    def fingerprint_of(self, event: CapturedEvent) -> Optional[str]:
        """Fingerprinted application protocol of the event's payload."""
        payload = event.payload
        if payload not in self._fingerprint_cache:
            self._fingerprint_cache[payload] = fingerprint(payload)
        return self._fingerprint_cache[payload]

    def is_malicious(self, event: CapturedEvent) -> bool:
        """Section 3.2 maliciousness, memoized per distinct payload."""
        key = (event.payload, event.dst_port, event.attempted_login)
        cached = self._malicious_cache.get(key)
        if cached is None:
            cached = self.classifier.is_malicious(event)
            self._malicious_cache[key] = cached
        return cached

    def reputation_oracle(self) -> ReputationOracle:
        """GreyNoise-style actor reputation over the whole dataset."""
        if self._oracle is None:
            oracle = ReputationOracle(classifier=self.classifier)
            if self.tables is not None:
                self._observe_columns(oracle)
                self._oracle = oracle
            else:
                self._oracle = oracle.observe_all(self.events)
        return self._oracle

    def _observe_columns(self, oracle: ReputationOracle) -> None:
        """Feed the oracle straight from columns, with the state
        ``observe_all(self.events)`` leaves: ``_seen_ips`` in
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

    def events_for(self, vantage_id: str) -> list[CapturedEvent]:
        if self.tables is not None:
            table = self.tables.get(vantage_id)
            return table.materialize() if table is not None else []
        return self._by_vantage().get(vantage_id, [])

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

    def events_for_group(self, vantages: Sequence[VantagePoint]) -> list[CapturedEvent]:
        events: list[CapturedEvent] = []
        for vantage in vantages:
            events.extend(self.events_for(vantage.vantage_id))
        return events

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------

    def slice_events(
        self, events: Iterable[CapturedEvent], traffic_slice: TrafficSlice
    ) -> list[CapturedEvent]:
        """Restrict events to one protocol/port slice."""
        selected: list[CapturedEvent] = []
        for event in events:
            if traffic_slice.port is not None and event.dst_port != traffic_slice.port:
                continue
            if traffic_slice.protocol is not None:
                if self.fingerprint_of(event) != traffic_slice.protocol:
                    continue
            selected.append(event)
        return selected

    # ------------------------------------------------------------------
    # characteristic counters (the rows of Tables 2, 4, 5, 7)
    # ------------------------------------------------------------------

    @staticmethod
    def as_counter(events: Iterable[CapturedEvent]) -> Counter:
        """Traffic counts per source AS (the "who")."""
        counts: Counter = Counter()
        for event in events:
            counts[event.src_asn] += 1
        return counts

    @staticmethod
    def username_counter(events: Iterable[CapturedEvent]) -> Counter:
        counts: Counter = Counter()
        for event in events:
            for username, _password in event.credentials:
                counts[username] += 1
        return counts

    @staticmethod
    def password_counter(events: Iterable[CapturedEvent]) -> Counter:
        counts: Counter = Counter()
        for event in events:
            for _username, password in event.credentials:
                counts[password] += 1
        return counts

    def payload_counter(self, events: Iterable[CapturedEvent]) -> Counter:
        """Distinct-payload traffic counts, ephemeral headers stripped."""
        counts: Counter = Counter()
        for event in events:
            if event.payload:
                counts[strip_ephemeral_headers(event.payload)] += 1
        return counts

    def malicious_fraction(self, events: Iterable[CapturedEvent]) -> tuple[int, int]:
        """(malicious, total) event counts for fraction comparisons."""
        malicious = 0
        total = 0
        for event in events:
            total += 1
            if self.is_malicious(event):
                malicious += 1
        return malicious, total

    def characteristic_counter(
        self, events: Sequence[CapturedEvent], characteristic: str
    ) -> Counter:
        """Dispatch by characteristic name: 'as', 'username', 'password',
        'payload'."""
        if characteristic == "as":
            return self.as_counter(events)
        if characteristic == "username":
            return self.username_counter(events)
        if characteristic == "password":
            return self.password_counter(events)
        if characteristic == "payload":
            return self.payload_counter(events)
        raise ValueError(f"unknown characteristic {characteristic!r}")

    # ------------------------------------------------------------------
    # source-IP sets (Tables 8/9)
    # ------------------------------------------------------------------

    def sources_on_port(self, port: int, kind: NetworkKind) -> set[int]:
        """Source IPs observed on ``port`` at honeypots of one network kind."""
        if self.tables is not None:
            from repro.analysis.contingency_engine import _unique_ints

            parts = [
                table.src_ip[table.dst_port == port]
                for table in self.tables.values()
                if table.network_kind == kind and len(table)
            ]
            return set(_unique_ints(np.concatenate(parts)).tolist()) if parts else set()
        sources = set()
        for event in self.events:
            if event.dst_port == port and event.network_kind == kind:
                sources.add(event.src_ip)
        return sources

    def malicious_sources_on_port(self, port: int, kind: NetworkKind) -> set[int]:
        """Source IPs that sent *malicious* traffic on ``port``/``kind``."""
        if self.tables is not None:
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
        sources = set()
        for event in self.events:
            if (
                event.dst_port == port
                and event.network_kind == kind
                and self.is_malicious(event)
            ):
                sources.add(event.src_ip)
        return sources
