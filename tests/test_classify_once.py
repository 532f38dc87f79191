"""The §3.2 maliciousness label is classified once per event, as a column,
and each distinct payload is derived once per pipeline.

Every table-backed consumer of the label — X1's blocklists, the Table 8/9
malicious source sets, the reputation oracle, and the M1 methodology
counters — reads the dataset coder's memoized per-event maliciousness
column instead of classifying rows.  Each test below pins one consumer
to a reference loop over materialized rows and
``AnalysisDataset.is_malicious``, the label's row definition.

The counting tests at the end hold every pipeline (watch, respond, the
run-dir server, live serving and the reproduce analyses) to one
strip, fingerprint and rule match per distinct payload.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from repro.analysis.blocklists import (
    CONTINENT_GROUPS,
    _continent_vantages,
    blocklist_coverage,
    build_blocklist,
    regional_blocklist_matrix,
    write_blocklist_file,
)
from repro.analysis.contingency_engine import dataset_coder
from repro.analysis.dataset import AnalysisDataset
from repro.analysis.ports import methodology_numbers
from repro.deployment.fleet import build_full_deployment
from repro.detection.classify import ReputationOracle
from repro.detection.engine import RuleEngine, load_default_rules
from repro.detection.fingerprint import fingerprint
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, get_context
from repro.experiments.context import _WINDOWS, ExperimentContext
from repro.experiments.ext_blocklists import run as run_x1
from repro.incident.pipeline import detect_incidents
from repro.io.table import EventTable
from repro.runner import orchestrate
from repro.scanners.payloads import strip_ephemeral_headers
from repro.scanners.population import PopulationConfig, build_population
from repro.serve.backends import RunDirBackend, build_live_pipeline, end_live_stream, load_run_dir
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.events import CapturedEvent, NetworkKind
from repro.sim.rng import RngHub
from repro.stream import bus as bus_module
from repro.stream.analyzer import CHARACTERISTICS
from repro.stream.watch import WatchOptions, watch_run_dir


def _rows(dataset, vantages):
    for vantage in vantages:
        table = dataset.tables.get(vantage.vantage_id)
        if table is not None:
            yield from table.materialize()


def _reference_blocklist(dataset, vantages, until_hour=None):
    return {
        event.src_ip
        for event in _rows(dataset, vantages)
        if (until_hour is None or event.timestamp < until_hour)
        and dataset.classifier.is_malicious(event)
    }


def _reference_coverage(dataset, ips, vantages, from_hour, asns=()):
    ips, asns = set(ips), set(asns)
    malicious = [
        event for event in _rows(dataset, vantages)
        if event.timestamp >= from_hour and dataset.classifier.is_malicious(event)
    ]
    blocked = [
        event for event in malicious if event.src_ip in ips or event.src_asn in asns
    ]
    return (
        len(ips) + len(asns),
        len(malicious),
        len(blocked),
        len({event.src_ip for event in malicious}),
        len({event.src_ip for event in blocked}),
    )


def _fields(coverage):
    return (coverage.blocklist_size, coverage.malicious_events,
            coverage.blocked_events, coverage.malicious_ips, coverage.blocked_ips)


class TestBlocklists:
    @pytest.mark.parametrize("until_hour", [None, 24.0, 84.0])
    def test_build_blocklist(self, dataset, until_hour):
        vantages = dataset.vantages_in(network="aws")[:40]
        assert build_blocklist(dataset, vantages, until_hour) == _reference_blocklist(
            dataset, vantages, until_hour
        )

    def test_coverage_with_asns(self, dataset):
        """The ``run X1 --blocklist`` call: IPs and AS entries together."""
        train = dataset.window.hours / 2.0
        ips = sorted(build_blocklist(dataset, _continent_vantages(dataset, "EU"), train))
        asns = sorted({event.src_asn for event in _rows(dataset, dataset.vantages[:5])})[:3]
        assert asns
        for group in CONTINENT_GROUPS:
            vantages = _continent_vantages(dataset, group)
            coverage = blocklist_coverage(
                dataset, ips[::3], vantages, from_hour=train, asns=asns
            )
            assert _fields(coverage) == _reference_coverage(
                dataset, ips[::3], vantages, train, asns
            )

    def test_regional_matrix(self, dataset):
        train = dataset.window.hours / 2.0
        cells = regional_blocklist_matrix(dataset)
        lists = {
            group: _reference_blocklist(dataset, _continent_vantages(dataset, group), train)
            for group in CONTINENT_GROUPS
        }
        assert [(cell.source_group, cell.target_group) for cell in cells] == [
            (source, target) for source in CONTINENT_GROUPS for target in CONTINENT_GROUPS
        ]
        for cell in cells:
            assert _fields(cell.coverage) == _reference_coverage(
                dataset, lists[cell.source_group],
                _continent_vantages(dataset, cell.target_group), train,
            )


@pytest.mark.parametrize("port", [22, 23, 80])
@pytest.mark.parametrize("kind", [NetworkKind.CLOUD, NetworkKind.EDU])
def test_malicious_sources_on_port(dataset, port, kind):
    expected = {
        event.src_ip
        for table in dataset.tables.values() if table.network_kind == kind
        for event in table.materialize()
        if event.dst_port == port and dataset.classifier.is_malicious(event)
    }
    assert dataset.malicious_sources_on_port(port, kind) == expected


def test_reputation_oracle_matches_row_observation(dataset):
    reference = ReputationOracle(classifier=dataset.classifier).observe_all(
        event for table in dataset.tables.values() for event in table.materialize()
    )
    oracle = dataset.reputation_oracle()
    assert list(oracle._seen_ips.items()) == list(reference._seen_ips.items())
    assert oracle.malicious_ips() == reference.malicious_ips()
    assert list(oracle.counts().items()) == list(reference.counts().items())


def test_reputation_oracle_first_sighting_order_and_last_asn():
    """Sources re-seen under another AS, across and within vantages."""
    def event(vantage_id, src_ip, src_asn, **fields):
        return CapturedEvent(vantage_id, "aws", NetworkKind.CLOUD, "US-East", 1.0,
                             src_ip, src_asn, 99, fields.pop("dst_port", 80), **fields)

    tables = {
        "a": [event("a", 5, 50), event("a", 3, 30), event("a", 5, 51),
              event("a", 7, 70, dst_port=22, credentials=(("root", "root"),))],
        "b": [event("b", 9, 90), event("b", 3, 31), event("b", 5, 52)],
    }
    dataset = AnalysisDataset(
        tables={vid: EventTable.from_events(rows) for vid, rows in tables.items()}
    )
    reference = ReputationOracle(classifier=dataset.classifier).observe_all(
        row for rows in tables.values() for row in rows
    )
    oracle = dataset.reputation_oracle()
    assert list(oracle._seen_ips.items()) == [(5, 52), (3, 31), (7, 70), (9, 90)]
    assert list(oracle._seen_ips.items()) == list(reference._seen_ips.items())
    assert oracle.malicious_ips() == reference.malicious_ips() == {7}


def test_methodology_numbers_match_row_counts(dataset):
    telnet, ssh, http = [0, 0], [0, 0], [0, 0]
    distinct: dict[bytes, bool] = {}
    for table in dataset.tables.values():
        for event in table.materialize():
            interactive = event.vantage_id.startswith("gn-") and event.handshake
            for port, counter in ((23, telnet), (22, ssh)):
                if interactive and event.dst_port == port:
                    counter[0] += 1
                    counter[1] += event.attempted_login
            if event.dst_port == 80 and event.payload and (
                fingerprint(event.payload) == "http"
            ):
                malicious = dataset.classifier.is_malicious(event)
                http[0] += 1
                http[1] += malicious
                distinct.setdefault(strip_ephemeral_headers(event.payload), malicious)

    def pct(part, whole):
        return 100.0 * part / whole if whole else 0.0

    numbers = methodology_numbers(dataset)
    assert numbers.telnet_non_auth_pct == pct(telnet[0] - telnet[1], telnet[0])
    assert numbers.ssh_non_auth_pct == pct(ssh[0] - ssh[1], ssh[0])
    assert numbers.http80_non_exploit_pct == pct(http[0] - http[1], http[0])
    assert numbers.distinct_http_payloads_malicious_pct == pct(
        sum(distinct.values()), len(distinct)
    )


def test_consumers_never_materialize_rows(small_context, monkeypatch, tmp_path):
    """X1 (both modes), T8, T9 and M1 run on a fresh dataset whose tables
    refuse to build row objects."""
    def refuse(self):
        raise AssertionError("row materialization on a columnar path")

    monkeypatch.setattr(EventTable, "materialize", refuse)
    monkeypatch.setattr(EventTable, "iter_events", refuse)
    context = ExperimentContext(
        config=small_context.config,
        deployment=small_context.deployment,
        result=small_context.result,
        dataset=AnalysisDataset.from_simulation(small_context.result),
    )
    blocklist = tmp_path / "blocklist.txt"
    write_blocklist_file(blocklist, ips=[167772161, 167772162], asns=[4134])
    assert run_x1(context).text
    assert run_x1(context, blocklist_path=str(blocklist)).text
    for experiment_id in ("T8", "T9", "M1"):
        assert ALL_EXPERIMENTS[experiment_id](context).text


def _port_scoped_dataset(context):
    """The context's tables under the shipped rules with every other rule
    scoped to ports 80 and 23, so the same payload is malicious on some
    ports and not on others."""
    rules = [
        dataclasses.replace(rule, dst_ports=frozenset({80, 23})) if index % 2 else rule
        for index, rule in enumerate(load_default_rules())
    ]
    result = context.result
    return AnalysisDataset(
        tables=result.tables(),
        vantages=result.deployment.honeypots,
        window=result.window,
        rule_engine=RuleEngine(rules),
    )


def test_label_and_families_under_port_scoped_rules(small_context):
    """The coder's label, the engine's per-vantage malicious counts and
    the per-source alert families equal the row definitions
    (``is_malicious_parts`` and ``alerts(payload, port)``) when rules
    carry ``dst_ports``."""
    dataset = _port_scoped_dataset(small_context)
    classifier = dataset.classifier
    engine = dataset.contingency()
    coder = dataset_coder(dataset)
    families: set[tuple[int, str]] = set()
    malicious_sources: set[int] = set()
    scoped_out = 0
    for vantage_id, table in dataset.tables.items():
        if not len(table):
            continue
        rows = list(zip(
            table.payloads.tolist(), table.dst_port.tolist(),
            table.credentials.astype(bool).tolist(), table.src_ip.tolist(),
        ))
        expected = [
            classifier.is_malicious_parts(payload, port, login)
            for payload, port, login, _src in rows
        ]
        assert coder.malicious(table).tolist() == expected
        assert engine.malicious["any_all"][engine.row(vantage_id)] == sum(expected)
        for (payload, port, login, src), label in zip(rows, expected):
            if label:
                malicious_sources.add(src)
            if not payload:
                continue
            alerts = classifier.rule_engine.alerts(payload, port)
            families.update((src, alert.classtype) for alert in alerts)
            scoped_out += not label and bool(classifier.rule_engine.alerts(payload))
    assert scoped_out, "the scoped rules never changed a verdict"
    aggregates = dataset.source_aggregates()
    assert {
        (int(aggregates.sources[source]), aggregates.family_values[family])
        for source, family in aggregates.families.tolist()
    } == families
    assert np.array_equal(
        aggregates.malicious, np.isin(aggregates.sources, sorted(malicious_sources))
    )


# ---------------------------------------------------------------------------
# one derivation per distinct payload per pipeline
# ---------------------------------------------------------------------------

#: Tiny but non-degenerate (the watch and serve tests' config).
TINY = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)
#: The drivers perfbench's ``reproduce`` workload runs on one dataset.
REPRODUCE = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11",
             "F1", "M1", "X1", "X2", "X4")
#: A bus bound small enough that a TINY simulation flushes many times.
QUEUE_EVENTS = 4096


class _DerivationCounts:
    """Counts each payload reaching ``strip_ephemeral_headers`` and
    ``fingerprint`` (every copy of them imported under ``repro``) and
    each element of a ``RuleEngine.alerts_batch`` list."""

    def __init__(self, monkeypatch) -> None:
        self.calls = {"strip": Counter(), "fingerprint": Counter(), "alerts_batch": Counter()}
        for key, original in (("strip", strip_ephemeral_headers), ("fingerprint", fingerprint)):
            def counted(payload, _original=original, _calls=self.calls[key]):
                _calls[payload] += 1
                return _original(payload)

            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counted)
        batch = RuleEngine.alerts_batch

        def counted_batch(engine, payloads):
            self.calls["alerts_batch"].update(payloads)
            return batch(engine, payloads)

        monkeypatch.setattr(RuleEngine, "alerts_batch", counted_batch)

    def run(self, pipeline) -> dict[str, Counter]:
        """The calls one pipeline makes."""
        for calls in self.calls.values():
            calls.clear()
        pipeline()
        return {key: Counter(calls) for key, calls in self.calls.items()}


def _repeats(calls: dict[str, Counter]) -> dict[str, int]:
    """Per derivation, the payloads that reached it more than once."""
    return {key: sum(count > 1 for count in counted.values()) for key, counted in calls.items()}


def _tapped_live_pipeline(*subscribers):
    """``serve --simulate --incidents`` in-process: TINY's simulation
    tapped into the live pipeline (plus ``subscribers``), then the end
    of the stream."""
    window = _WINDOWS[TINY.year]
    deployment = build_full_deployment(
        RngHub(TINY.seed), num_telescope_slash24s=TINY.telescope_slash24s
    )
    bus, analyzer, tracker, backend = build_live_pipeline(
        window.hours, leak_experiment=deployment.leak_experiment,
        max_buffered_events=QUEUE_EVENTS, incidents=True,
    )
    for subscriber in subscribers:
        bus.subscribe(subscriber)
    run_simulation(
        deployment,
        build_population(PopulationConfig(year=TINY.year, scale=TINY.scale)),
        SimulationConfig(seed=TINY.seed, window=window),
        tap=bus.publish,
    )
    end_live_stream(bus, backend)
    return analyzer, tracker, backend.pipeline


@pytest.fixture(scope="module")
def tiny_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("derive") / "run"
    assert not orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True).partial
    return out


def test_each_pipeline_derives_each_distinct_payload_once(tiny_run_dir, monkeypatch):
    context = get_context(TINY)
    fresh = ExperimentContext(
        config=context.config,
        deployment=context.deployment,
        result=context.result,
        dataset=AnalysisDataset.from_simulation(context.result),
    )

    def serve_run_dir():
        backend = RunDirBackend(tiny_run_dir)
        assert backend.handle("/ip", {"ip": "1.2.3.4"})["seen"] is False
        for vantage in sorted(backend.dataset.tables):
            for characteristic in CHARACTERISTICS:
                backend.handle("/top", {"vantage": vantage, "characteristic": characteristic})
        for characteristic in CHARACTERISTICS:
            backend.handle("/compare", {"characteristic": characteristic})

    counting = _DerivationCounts(monkeypatch)
    calls = {
        "watch": counting.run(lambda: watch_run_dir(
            tiny_run_dir, WatchOptions(snapshot_events=0), say=lambda line: None)),
        "respond": counting.run(lambda: detect_incidents(load_run_dir(tiny_run_dir)[1])),
        "run-dir server": counting.run(serve_run_dir),
        "live": counting.run(_tapped_live_pipeline),
        "reproduce": counting.run(
            lambda: [ALL_EXPERIMENTS[experiment](fresh) for experiment in REPRODUCE]),
    }
    for path, counted in calls.items():
        assert _repeats(counted) == {"strip": 0, "fingerprint": 0, "alerts_batch": 0}, path
        assert counted["strip"], path
    for path in ("watch", "respond"):
        assert not calls[path]["fingerprint"] and not calls[path]["alerts_batch"], path
    for path in ("run-dir server", "live", "reproduce"):
        assert calls[path]["alerts_batch"], path
    assert calls["reproduce"]["fingerprint"]


def _live_state(analyzer, tracker, pipeline) -> tuple:
    sketches = {
        name: [(group, sketch.counts(), dict(sketch._errors), sketch.total)
               for group, sketch in contingency._groups.items()]
        for name, contingency in analyzer.contingency.items()
    }
    return (sketches, analyzer.snapshot().as_dict(), list(tracker._records.items()),
            tracker.evicted, pipeline.audit.to_ndjson())


class _CoderLog:
    """A subscriber recording each coder its frames carry, in turn."""

    def __init__(self) -> None:
        self.coders: list = []

    def consume(self, frame) -> None:
        if not self.coders or self.coders[-1] is not frame.coder:
            self.coders.append(frame.coder)


def test_bounded_bus_coder_changes_no_live_state(monkeypatch):
    """A bus whose coder is replaced every few payloads leaves the live
    analyzer, tracker and audit log exactly as an unbounded one does."""
    log = _CoderLog()
    unbounded = _tapped_live_pipeline(log)
    assert len(log.coders) == 1
    monkeypatch.setattr(bus_module, "_CODER_PAYLOAD_CAP", 3)
    log = _CoderLog()
    bounded = _tapped_live_pipeline(log)
    assert len(log.coders) > 1
    assert _live_state(*bounded) == _live_state(*unbounded)
