"""The serving layer's two backends: live sketch state and run dirs.

Both backends answer the same endpoint set with the same JSON shapes,
so a client (and the test suite) can move between them freely:

========================  ==================================================
``GET /healthz``          liveness + backend identity
``GET /vantages``         per-vantage rates, distinct sources, spike counts
``GET /top``              Space-Saving / exact top-k for one characteristic
``GET /cardinality``      distinct-source cardinalities (HLL or exact)
``GET /volumes``          one vantage's hourly event series
``GET /compare``          the §3.3 cross-vantage chi-squared, on demand
``GET /ip``               per-IP GreyNoise-style classification
``GET /alarms``           streaming Table 3 leak-alarm status
``GET /stats``            bus backpressure/drop counters + server stats
========================  ==================================================

* :class:`LiveBackend` attaches to a running
  :class:`~repro.stream.analyzer.StreamAnalyzer` /
  :class:`~repro.stream.bus.StreamBus` pair and answers from bounded
  sketch state — estimates with explicit error bounds, never a rescan,
  so a query can never block or slow ingest beyond the shared lock's
  microseconds.  Per-IP classification comes from a bounded
  :class:`ReputationTracker` fed off the same bus.
* :class:`RunDirBackend` opens a completed ``cloudwatching orchestrate``
  output directory through the memory-mapped shard banks (one
  :meth:`~repro.io.table.EventTable.concat` of its shard tables per
  vantage) and answers with *exact* batch values computed by the same
  columnar machinery the experiment drivers use, memoized per (dataset
  digest, endpoint, params) in a content-addressed response cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from repro.lint.markers import requires_ingest_lock
from repro.net.addresses import int_to_ip
from repro.serve.schema import (
    ActionsQuery,
    AlarmsQuery,
    CardinalityQuery,
    CompareQuery,
    Characteristic,
    IncidentsQuery,
    IpQuery,
    NoParamsQuery,
    SchemaError,
    TopQuery,
    VolumesQuery,
)
from repro.stream.bus import StreamFrame, frame_cuts

__all__ = [
    "ROUTES",
    "ServeBackend",
    "LiveBackend",
    "RunDirBackend",
    "ReputationTracker",
    "LockedConsumer",
    "build_live_pipeline",
    "encode_category",
    "end_live_stream",
    "load_run_dir",
]

#: path -> (request contract, backend method name)
ROUTES = {
    "/healthz": (NoParamsQuery, "health"),
    "/vantages": (NoParamsQuery, "vantages"),
    "/top": (TopQuery, "top"),
    "/cardinality": (CardinalityQuery, "cardinality"),
    "/volumes": (VolumesQuery, "volumes"),
    "/compare": (CompareQuery, "compare"),
    "/ip": (IpQuery, "classify"),
    "/alarms": (AlarmsQuery, "alarms"),
    "/incidents": (IncidentsQuery, "incidents"),
    "/actions": (ActionsQuery, "actions"),
    "/stats": (NoParamsQuery, "stats"),
}


def encode_category(category) -> Union[int, str, dict]:
    """One sketch/counter category as a JSON-safe value.

    Integers (ASes) and strings (credentials) pass through; payload
    bytes become ``{"base64", "text"}`` so binary payloads survive JSON
    without loss while staying human-readable.
    """
    import base64

    if isinstance(category, bytes):
        text = category.split(b"\r\n", 1)[0].decode("utf-8", errors="replace")[:64]
        return {"base64": base64.b64encode(category).decode("ascii"), "text": text}
    if isinstance(category, (int, np.integer)):
        return int(category)
    return str(category)


def _chi_square_json(result) -> dict:
    return {
        "statistic": float(result.statistic),
        "p_value": float(result.p_value),
        "dof": int(result.dof),
        "phi": float(result.phi),
        "df_min": int(result.df_min),
        "sample_size": int(result.sample_size),
        "valid": bool(result.valid),
        "magnitude": str(result.magnitude) if result.valid else "untestable",
    }


def _incidents_json(pipeline, status: Optional[str], mode: str) -> dict:
    """The shared ``/incidents`` shape (both backends, one encoder)."""
    if pipeline is None:
        return {"backend": mode, "enabled": False,
                "counts": None, "incidents": []}
    counts = pipeline.store.counts()
    return {
        "backend": mode,
        "enabled": True,
        "counts": counts,
        "incidents": [
            incident.as_dict() for incident in pipeline.store.by_status(status)
        ],
    }


def _actions_json(pipeline, action: Optional[str], mode: str) -> dict:
    """The shared ``/actions`` shape (both backends, one encoder)."""
    if pipeline is None:
        return {"backend": mode, "enabled": False,
                "actions": [], "blocklist": []}
    return {
        "backend": mode,
        "enabled": True,
        "actions": pipeline.audit.actions(action),
        "blocklist": [
            entry.as_dict() for entry in pipeline.executor.blocklist
        ],
        "audit_records": len(pipeline.audit),
        "audit_digest": pipeline.audit.digest(),
    }


def _alarm_json(alarm) -> dict:
    return {
        "service": alarm.service,
        "group": alarm.group,
        "fold": float(alarm.fold),
        "mwu_p": float(alarm.mwu_p),
        "ks_p": float(alarm.ks_p),
        "stochastically_greater": bool(alarm.stochastically_greater),
        "distribution_differs": bool(alarm.distribution_differs),
        "leaked_spikes": int(alarm.leaked_spikes),
        "control_spikes": int(alarm.control_spikes),
        "trailing_hours": int(alarm.trailing_hours),
    }


class ServeBackend:
    """Routing shared by both backends: contract-validate, dispatch."""

    #: "live" or "run-dir" — stamped into /healthz and /stats.
    mode: str = "abstract"

    def handle(self, path: str, params: Mapping[str, str]) -> Optional[dict]:
        """Answer one request; ``None`` for unknown paths (a 404).

        Contract violations — including unknown vantage ids — raise
        :class:`~repro.serve.schema.SchemaError`, which the HTTP layer
        renders as a structured 400.
        """
        route = ROUTES.get(path)
        if route is None:
            return None
        contract, method = route
        query = contract.parse(params)
        return getattr(self, method)(query)

    def cache_key(self, path: str, params: Mapping[str, str]) -> Optional[str]:
        """Content address of this response, or None when uncacheable."""
        return None

    def _unknown_vantage(self, vantage: str) -> SchemaError:
        return SchemaError.single("vantage", "unknown vantage", vantage)

    # Subclasses implement: health, vantages, top, cardinality, volumes,
    # compare, classify, alarms, stats.


# ---------------------------------------------------------------------------
# live mode
# ---------------------------------------------------------------------------


class ReputationTracker:
    """Bounded per-IP reputation over the stream (GreyNoise's question:
    *who is this scanner?*).

    A bus subscriber maintaining at most ``capacity`` per-IP records
    (source ASN, event count, malicious flag).  Classification follows
    the paper's §3.2 definitions exactly — an IP is *malicious* once any
    of its events attempts a login or trips the vetted ruleset, *benign*
    when its operator AS is on the vetted registry, *unknown* otherwise.
    At capacity the oldest non-malicious record is evicted (malicious
    verdicts are the scarce signal worth keeping), so memory stays
    bounded no matter how many sources scan.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: ip -> [asn, events, malicious] in least-recently-seen order.
        self._records: OrderedDict[int, list] = OrderedDict()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._records)

    def consume(self, frame: StreamFrame) -> None:
        """Fold one frame's rows in, in stream order.  Rows are labeled
        by the frame's coder."""
        flags = frame.column("credentials").astype(bool)
        rows, codes = frame.payload_codes()
        if rows.size:
            flags[rows] = frame.coder.label(codes, frame.column("dst_port")[rows], flags[rows])
        records = self._records
        for ip, asn, malicious in zip(
            frame.column("src_ip").tolist(),
            frame.column("src_asn").tolist(),
            flags.tolist(),
        ):
            record = records.get(ip)
            if record is None:
                records[ip] = [asn, 1, malicious]
                self._evict_if_needed()
            else:
                record[0] = asn
                record[1] += 1
                record[2] = record[2] or malicious
                records.move_to_end(ip)

    def _evict_if_needed(self) -> None:
        while len(self._records) > self.capacity:
            for ip in self._records:
                if not self._records[ip][2]:
                    del self._records[ip]
                    break
            else:  # every record is malicious: evict the oldest anyway
                self._records.popitem(last=False)
            self.evicted += 1

    def classify(self, ip: int) -> dict:
        from repro.detection.classify import VETTED_BENIGN_ASES

        record = self._records.get(ip)
        if record is None:
            return {"seen": False, "reputation": "unknown", "events": 0, "asn": None}
        asn, events, malicious = record
        if malicious:
            reputation = "malicious"
        elif asn in VETTED_BENIGN_ASES:
            reputation = "benign"
        else:
            reputation = "unknown"
        return {"seen": True, "reputation": reputation,
                "events": int(events), "asn": int(asn)}

    def state_bytes(self) -> int:
        return 64 * len(self._records)


class LiveBackend(ServeBackend):
    """Serve a running analyzer's sketch state without blocking ingest.

    ``lock`` is shared with the ingest side (the thread publishing to
    the bus): every answer is computed under it, so queries see
    consistent sketch state and ingest never observes a half-read.
    Estimates are labeled ``"exact": false`` and carry their error
    bounds — a Space-Saving answer is an overestimate by at most the
    reported per-entry error.
    """

    mode = "live"

    def __init__(
        self,
        analyzer,
        bus=None,
        tracker: Optional[ReputationTracker] = None,
        lock: Optional[threading.Lock] = None,
        pipeline=None,
    ) -> None:
        self.analyzer = analyzer
        self.bus = bus
        self.tracker = tracker
        #: Optional live :class:`~repro.incident.pipeline.IncidentPipeline`
        #: consuming the same bus under the same lock.
        self.pipeline = pipeline
        self.lock = lock or threading.Lock()

    @requires_ingest_lock
    def _require_vantage(self, vantage: str) -> None:
        if vantage not in self.analyzer.events_per_vantage:
            raise self._unknown_vantage(vantage)

    def health(self, _query) -> dict:
        with self.lock:
            analyzer = self.analyzer
            return {
                "status": "ok",
                "backend": self.mode,
                "events": int(analyzer.events_consumed),
                "chunks": int(analyzer.chunks_consumed),
                "vantages": len(analyzer.events_per_vantage),
                "watermark_hours": float(analyzer.windows.watermark),
                "state_bytes": int(analyzer.state_bytes()),
            }

    def vantages(self, _query) -> dict:
        with self.lock:
            analyzer = self.analyzer
            rows = []
            for vantage_id, events in analyzer.events_per_vantage.most_common():
                hll = analyzer.distinct_sources.get(vantage_id)
                rows.append({
                    "vantage": vantage_id,
                    "events": int(events),
                    "rate_per_hour": float(analyzer.windows.rate_per_hour(vantage_id)),
                    "distinct_sources": float(hll.estimate()) if hll else 0.0,
                    "spikes": int(analyzer.windows.spikes(vantage_id)),
                })
            return {"backend": self.mode, "vantages": rows}

    def top(self, query: TopQuery) -> dict:
        with self.lock:
            self._require_vantage(query.vantage)
            sketch = self.analyzer.contingency[query.characteristic.value].sketch(
                query.vantage
            )
            categories = [
                {
                    "category": encode_category(category),
                    "count": float(sketch.estimate(category)),
                    "error": float(sketch.error(category)),
                }
                for category in sketch.top(query.k)
            ]
            return {
                "backend": self.mode,
                "vantage": query.vantage,
                "characteristic": query.characteristic.value,
                "k": query.k,
                "exact": False,
                "error_bound": float(sketch.error_bound) if sketch.total else 0.0,
                "categories": categories,
            }

    def cardinality(self, query: CardinalityQuery) -> dict:
        with self.lock:
            analyzer = self.analyzer
            if query.vantage is not None:
                self._require_vantage(query.vantage)
                wanted = [query.vantage]
            else:
                wanted = sorted(analyzer.events_per_vantage)
            return {
                "backend": self.mode,
                "exact": False,
                "distinct_sources": {
                    vantage_id: float(
                        analyzer.distinct_sources[vantage_id].estimate()
                    ) if vantage_id in analyzer.distinct_sources else 0.0
                    for vantage_id in wanted
                },
            }

    def volumes(self, query: VolumesQuery) -> dict:
        with self.lock:
            self._require_vantage(query.vantage)
            windows = self.analyzer.windows
            return {
                "backend": self.mode,
                "vantage": query.vantage,
                "hours": int(windows.hours),
                "watermark_hours": float(windows.watermark),
                "sealed_hours": int(windows.sealed_hours()),
                "series": [float(v) for v in windows.series(query.vantage)],
                "spikes": int(windows.spikes(query.vantage)),
                "rate_per_hour": float(windows.rate_per_hour(query.vantage)),
            }

    def compare(self, query: CompareQuery) -> dict:
        with self.lock:
            result = self.analyzer.chi_square(query.characteristic.value, query.k)
            return {
                "backend": self.mode,
                "characteristic": query.characteristic.value,
                "k": query.k,
                "exact": False,
                "chi_square": _chi_square_json(result),
            }

    def classify(self, query: IpQuery) -> dict:
        with self.lock:
            if self.tracker is None:
                raise SchemaError.single(
                    "ip", "per-IP classification is not enabled on this server", None
                )
            answer = self.tracker.classify(query.ip)
            return {"backend": self.mode, "ip": int_to_ip(query.ip), **answer}

    def alarms(self, query: AlarmsQuery) -> dict:
        with self.lock:
            leak = self.analyzer.leak
            rows = leak.evaluate(query.trailing_hours) if leak is not None else []
            return {
                "backend": self.mode,
                "enabled": leak is not None,
                "trailing_hours": query.trailing_hours,
                "alarms": [_alarm_json(alarm) for alarm in rows],
            }

    def incidents(self, query: IncidentsQuery) -> dict:
        with self.lock:
            return _incidents_json(self.pipeline, query.status, self.mode)

    def actions(self, query: ActionsQuery) -> dict:
        with self.lock:
            return _actions_json(self.pipeline, query.action, self.mode)

    def stats(self, _query) -> dict:
        with self.lock:
            payload = {
                "backend": self.mode,
                "events": int(self.analyzer.events_consumed),
                "state_bytes": int(self.analyzer.state_bytes()),
                "bus": self.bus.stats.as_dict() if self.bus is not None else None,
            }
            if self.bus is not None:
                payload["bus"]["policy"] = self.bus.policy
                payload["bus"]["max_buffered_events"] = self.bus.max_buffered_events
            if self.tracker is not None:
                payload["reputation"] = {
                    "tracked_ips": len(self.tracker),
                    "capacity": self.tracker.capacity,
                    "evicted": self.tracker.evicted,
                }
            if self.pipeline is not None:
                payload["incidents"] = self.pipeline.summary()
            return payload


class LockedConsumer:
    """Deliver each frame to several consumers under a shared lock.

    The ingest thread publishes through this; the query side reads the
    same sketch state under the same lock.  One acquisition covers the
    whole fan-out, so every consumer sees each frame atomically with
    respect to queries, and a frame's size bound
    (:data:`~repro.stream.bus.MAX_FRAME_EVENTS`) bounds the hold.
    """

    def __init__(self, lock: threading.Lock, *consumers) -> None:
        self.lock = lock
        self.consumers = consumers

    def consume(self, frame: StreamFrame) -> None:
        with self.lock:
            for consumer in self.consumers:
                consumer.consume(frame)

    def cuts(self, frame: StreamFrame) -> list[int]:
        """Where the wrapped consumers read state mid-stream."""
        with self.lock:
            return frame_cuts(self.consumers, frame)


def build_live_pipeline(
    hours: int,
    leak_experiment=None,
    sketch_k: int = 64,
    max_buffered_events: int = 65536,
    incidents: bool = False,
):
    """Wire bus → (analyzer, tracker) → LiveBackend for live serving.

    Returns ``(bus, analyzer, tracker, backend)``.  The analyzer and
    tracker consume under one shared lock; the returned backend answers
    queries under the same lock, so an ingest thread can publish while
    an asyncio server reads, with neither seeing torn state.

    ``incidents=True`` additionally wires a live
    :class:`~repro.incident.pipeline.IncidentPipeline` into the same
    locked fan-out (after the analyzer, so rules see sketched hours) and
    exposes it on the backend's ``/incidents`` and ``/actions``
    endpoints.  Off by default: detection costs rule evaluations per
    sealed hour, and servers that only answer sketch queries should not
    pay it.
    """
    from repro.stream.analyzer import StreamAnalyzer
    from repro.stream.bus import StreamBus

    lock = threading.Lock()
    bus = StreamBus(max_buffered_events=max_buffered_events)
    analyzer = StreamAnalyzer(
        hours=hours, sketch_k=sketch_k, leak_experiment=leak_experiment
    )
    tracker = ReputationTracker()
    consumers = [analyzer, tracker]
    pipeline = None
    if incidents:
        from repro.incident.pipeline import IncidentPipeline

        pipeline = IncidentPipeline(analyzer)
        consumers.append(pipeline)
    bus.subscribe(LockedConsumer(lock, *consumers))
    backend = LiveBackend(
        analyzer, bus=bus, tracker=tracker, lock=lock, pipeline=pipeline
    )
    return bus, analyzer, tracker, backend


def end_live_stream(bus, backend: LiveBackend) -> None:
    """End of ingest: flush what ``bus`` still buffers, then finalize
    live incident detection under the ingest lock — the window's last
    hour never seals on its own, so without this ``/incidents`` misses
    the tail."""
    bus.close()
    if backend.pipeline is not None:
        with backend.lock:
            backend.pipeline.finalize()


# ---------------------------------------------------------------------------
# run-dir mode
# ---------------------------------------------------------------------------


def load_run_dir(run_dir: Union[str, Path]):
    """Open a completed orchestrate output as (config, dataset, digest).

    Reads ``run.json`` for the configuration and dataset digest,
    deterministically rebuilds the deployment (vantage identities and
    leak-experiment geometry — no event data comes from it), then maps
    every completed shard's column banks into per-vantage merged views
    (:func:`~repro.io.lazy.merge_shard_tables`).  Nothing beyond the
    shard directories' small NDJSON headers is read until an endpoint
    touches a column.
    """
    from repro.analysis.dataset import AnalysisDataset
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments.context import ExperimentConfig, _WINDOWS
    from repro.io.lazy import merge_shard_tables
    from repro.io.shards import load_shard_tables, read_manifest
    from repro.sim.rng import RngHub

    run_dir = Path(run_dir)
    run_file = run_dir / "run.json"
    if not run_file.exists():
        raise FileNotFoundError(f"{run_file} not found (not an orchestrate output?)")
    with open(run_file, "r", encoding="utf-8") as handle:
        run_record = json.load(handle)
    config = ExperimentConfig(**run_record.get("config", {}))
    digest = run_record.get("dataset_digest", "")

    deployment = build_full_deployment(
        RngHub(config.seed), num_telescope_slash24s=config.telescope_slash24s
    )
    shard_tables = []
    for shard_path in sorted(run_dir.glob("shard-*")):
        if shard_path.is_dir() and read_manifest(shard_path) is not None:
            shard_tables.append(load_shard_tables(shard_path))
    if not shard_tables:
        raise FileNotFoundError(f"no completed shards under {run_dir}")

    dataset = AnalysisDataset(
        tables=merge_shard_tables(deployment.honeypots, shard_tables),
        vantages=deployment.honeypots,
        window=_WINDOWS[config.year],
        leak_experiment=deployment.leak_experiment,
    )
    return config, dataset, digest


class RunDirBackend(ServeBackend):
    """Exact batch answers over a completed orchestrate run directory.

    Every response is computed from the memory-mapped shard columns with
    the same primitives the batch analyses use (``top_k`` ordering,
    ``hourly_volumes`` binning, ``union_table`` → ``chi_square_test``,
    the reputation oracle, Table 3's drained leak alarm), labeled
    ``"exact": true``.  Computed
    aggregates are memoized per (vantage, characteristic); encoded
    responses are additionally cached content-addressed on
    ``(dataset_digest, path, params)`` by the HTTP layer, keyed through
    :meth:`cache_key`.
    """

    mode = "run-dir"

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.config, self.dataset, self.dataset_digest = load_run_dir(run_dir)
        self.hours = int(self.dataset.window.hours)
        self._counters: dict[tuple[str, str], Counter] = {}
        self._leak_alarm = None
        self._incidents = None
        self._lock = threading.Lock()

    # -- shared aggregates (memoized) ----------------------------------

    @requires_ingest_lock
    def _require_vantage(self, vantage: str) -> None:
        if vantage not in self.dataset.tables:
            raise self._unknown_vantage(vantage)

    @requires_ingest_lock
    def _counter(self, vantage: str, characteristic: Characteristic) -> Counter:
        """Exact per-vantage category counts: source ASes off the mapped
        column, the rest as codes of the dataset's coder (payloads in
        their stripped form), one ``np.bincount`` each."""
        from repro.analysis.contingency_engine import dataset_coder

        key = (vantage, characteristic.value)
        cached = self._counters.get(key)
        if cached is not None:
            return cached
        table = self.dataset.tables[vantage]
        if characteristic is Characteristic.AS:
            values, occurrences = np.unique(table.src_asn, return_counts=True)
            categories = values.tolist()
        else:
            coder = dataset_coder(self.dataset)
            if characteristic is Characteristic.PAYLOAD:
                # Coded before the lookup is read: it covers only the
                # payloads interned so far.
                payloads = coder.payload_column(table)
                codes = coder.stripped_lookup()[payloads]
                codes, categories = codes[codes >= 0], coder.stripped_values
            else:
                _rows, users, passwords = coder.credential_pairs(table)
                if characteristic is Characteristic.USERNAME:
                    codes, categories = users, coder.user_values
                else:
                    codes, categories = passwords, coder.pass_values
            occurrences = np.bincount(codes)
            present = np.flatnonzero(occurrences)
            categories = [categories[code] for code in present.tolist()]
            occurrences = occurrences[present]
        counts = Counter(dict(zip(categories, occurrences.tolist())))
        self._counters[key] = counts
        return counts

    @requires_ingest_lock
    def _group_counts(self, characteristic: Characteristic) -> dict[str, Counter]:
        return {
            vantage_id: self._counter(vantage_id, characteristic)
            for vantage_id in sorted(self.dataset.tables)
        }

    @requires_ingest_lock
    def _leak(self):
        if self._leak_alarm is None and self.dataset.leak_experiment is not None:
            from repro.analysis.leak import drain_leak_alarm

            self._leak_alarm = drain_leak_alarm(self.dataset)
        return self._leak_alarm

    @requires_ingest_lock
    def _detect(self):
        """Post-hoc incident detection over the run, memoized.

        The canonical replay is a pure function of the merged tables, so
        the answer (and its audit digest) is the same for every shard
        layout of a seed.  A live pipeline gives the same answer only
        when it is fed the rows in that canonical order (the parity test
        feeds it so); a tapped simulation or a watched run directory
        streams them in another order, and seals hours differently.
        """
        if self._incidents is None:
            from repro.incident.pipeline import detect_incidents

            self._incidents = detect_incidents(self.dataset)
        return self._incidents

    # -- endpoints ------------------------------------------------------

    def cache_key(self, path: str, params: Mapping[str, str]) -> Optional[str]:
        # /stats reports counters that move between calls: never cached.
        if path not in ROUTES or path == "/stats":
            return None
        canonical = "&".join(f"{k}={params[k]}" for k in sorted(params))
        content = f"{self.dataset_digest}|{path}|{canonical}"
        return hashlib.sha256(content.encode("utf-8")).hexdigest()

    def health(self, _query) -> dict:
        with self._lock:
            return {
                "status": "ok",
                "backend": self.mode,
                "run_dir": str(self.run_dir),
                "dataset_digest": self.dataset_digest,
                "events": int(sum(len(t) for t in self.dataset.tables.values())),
                "vantages": len(self.dataset.tables),
                "config": {
                    "year": self.config.year,
                    "scale": self.config.scale,
                    "telescope_slash24s": self.config.telescope_slash24s,
                    "seed": self.config.seed,
                },
            }

    def vantages(self, _query) -> dict:
        with self._lock:
            from repro.stats.volume import count_spikes, hourly_volumes

            rows = []
            ordered = sorted(
                self.dataset.tables.items(), key=lambda item: (-len(item[1]), item[0])
            )
            for vantage_id, table in ordered:
                series = hourly_volumes(table.timestamps, self.hours)
                rows.append({
                    "vantage": vantage_id,
                    "events": int(len(table)),
                    "rate_per_hour": float(series.mean()) if series.size else 0.0,
                    "distinct_sources": float(len(np.unique(table.src_ip))),
                    "spikes": int(count_spikes(series)),
                })
            return {"backend": self.mode, "vantages": rows}

    def top(self, query: TopQuery) -> dict:
        with self._lock:
            from repro.stats.topk import top_k

            self._require_vantage(query.vantage)
            counts = self._counter(query.vantage, query.characteristic)
            return {
                "backend": self.mode,
                "vantage": query.vantage,
                "characteristic": query.characteristic.value,
                "k": query.k,
                "exact": True,
                "error_bound": 0.0,
                "categories": [
                    {
                        "category": encode_category(category),
                        "count": float(counts[category]),
                        "error": 0.0,
                    }
                    for category in top_k(counts, query.k)
                ],
            }

    def cardinality(self, query: CardinalityQuery) -> dict:
        with self._lock:
            if query.vantage is not None:
                self._require_vantage(query.vantage)
                wanted = [query.vantage]
            else:
                wanted = sorted(self.dataset.tables)
            return {
                "backend": self.mode,
                "exact": True,
                "distinct_sources": {
                    vantage_id: float(
                        len(np.unique(self.dataset.tables[vantage_id].src_ip))
                    )
                    for vantage_id in wanted
                },
            }

    def volumes(self, query: VolumesQuery) -> dict:
        with self._lock:
            from repro.stats.volume import count_spikes, hourly_volumes

            self._require_vantage(query.vantage)
            table = self.dataset.tables[query.vantage]
            series = hourly_volumes(table.timestamps, self.hours)
            watermark = float(table.timestamps.max()) if len(table) else 0.0
            return {
                "backend": self.mode,
                "vantage": query.vantage,
                "hours": self.hours,
                "watermark_hours": watermark,
                "sealed_hours": min(int(watermark), self.hours),
                "series": [float(v) for v in series],
                "spikes": int(count_spikes(series)),
                "rate_per_hour": float(series.mean()) if series.size else 0.0,
            }

    def compare(self, query: CompareQuery) -> dict:
        with self._lock:
            from repro.stats.contingency import chi_square_test
            from repro.stats.topk import union_table

            table, _groups, _categories = union_table(
                self._group_counts(query.characteristic), query.k
            )
            return {
                "backend": self.mode,
                "characteristic": query.characteristic.value,
                "k": query.k,
                "exact": True,
                "chi_square": _chi_square_json(chi_square_test(table)),
            }

    def classify(self, query: IpQuery) -> dict:
        with self._lock:
            oracle = self.dataset.reputation_oracle()
            seen_asn = oracle._seen_ips.get(query.ip)
            events = int(sum(
                int(np.count_nonzero(table.src_ip == np.uint32(query.ip)))
                for table in self.dataset.tables.values()
            )) if seen_asn is not None else 0
            return {
                "backend": self.mode,
                "ip": int_to_ip(query.ip),
                "seen": seen_asn is not None,
                "reputation": oracle.reputation(query.ip).value,
                "events": events,
                "asn": int(seen_asn) if seen_asn is not None else None,
            }

    def alarms(self, query: AlarmsQuery) -> dict:
        with self._lock:
            leak = self._leak()
            rows = leak.evaluate(query.trailing_hours) if leak is not None else []
            return {
                "backend": self.mode,
                "enabled": leak is not None,
                "trailing_hours": query.trailing_hours,
                "alarms": [_alarm_json(alarm) for alarm in rows],
            }

    def incidents(self, query: IncidentsQuery) -> dict:
        with self._lock:
            return _incidents_json(self._detect(), query.status, self.mode)

    def actions(self, query: ActionsQuery) -> dict:
        with self._lock:
            return _actions_json(self._detect(), query.action, self.mode)

    def stats(self, _query) -> dict:
        with self._lock:
            payload = {
                "backend": self.mode,
                "dataset_digest": self.dataset_digest,
                "events": int(sum(len(t) for t in self.dataset.tables.values())),
                "bus": None,
                "memoized_counters": len(self._counters),
            }
            if self._incidents is not None:
                payload["incidents"] = self._incidents.summary()
            return payload
