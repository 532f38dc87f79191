"""repro.incident: rules, lifecycle, audit determinism, enforcement,
and the X5 closed loop.

The determinism headline lives here: the same fixed seed must produce a
byte-identical audit log whether detection runs in-process over the
batch dataset or over a 1-, 2- or 4-shard orchestrated run directory —
that invariance is what makes the incident log an artifact rather than
an accident of execution layout.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, get_context
from repro.incident import (
    ActiveBlocklist,
    AuditLog,
    CampaignOnsetRule,
    CredentialLeakRule,
    IncidentPipeline,
    IncidentRule,
    IncidentStore,
    NewHeavyHitterRule,
    RunbookExecutor,
    Signal,
    VolumeSpikeRule,
    default_rules,
    detect_incidents,
)
from repro.incident.pipeline import canonical_frame
from repro.io.table import COLUMNS
from repro.runner import orchestrate
from repro.serve.backends import RunDirBackend, build_live_pipeline, load_run_dir
from repro.serve.schema import (
    ActionsQuery,
    IncidentsQuery,
    SchemaError,
    validate_blocklist_file,
)
from repro.stream.analyzer import CHARACTERISTICS, StreamAnalyzer

#: Same tiny-but-real fixed-seed config the serve/watch tests pin.
TINY = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)


@pytest.fixture(scope="module")
def tiny():
    return get_context(TINY)


@pytest.fixture(scope="module")
def tiny_pipeline(tiny):
    """One in-process detection pass shared by the module."""
    return detect_incidents(tiny.dataset)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A 2-shard orchestrated run of the same seed."""
    out = tmp_path_factory.mktemp("incident") / "run"
    run = orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True)
    assert not run.partial
    return out


def _signal(key="spike:v1", hour=3, rule="volume-spike", offenders=()):
    return Signal(
        rule=rule, key=key, hour=hour, severity="warning",
        summary=f"{key} at {hour}", offenders=tuple(offenders),
    )


# ---------------------------------------------------------------------------
# store lifecycle + audit log
# ---------------------------------------------------------------------------


class TestIncidentStore:
    def test_signals_sharing_a_key_fold_into_one_incident(self):
        store = IncidentStore()
        opened = store.ingest([_signal(hour=3)], hour=3)
        assert [i.incident_id for i in opened] == ["INC-0001"]
        assert store.ingest([_signal(hour=4)], hour=4) == []
        incident = store.history[0]
        assert incident.signals == 2
        assert (incident.opened_hour, incident.last_hour) == (3, 4)
        assert len(store.history) == 1

    def test_lifecycle_walks_open_acknowledged_resolved(self):
        store = IncidentStore(quiet_hours=2)
        (incident,) = store.ingest([_signal(hour=3)], hour=3)
        assert incident.status == "open" and incident.active
        store.acknowledge(incident, hour=3, runbook="reweight")
        assert incident.status == "acknowledged" and incident.active
        assert store.resolve_quiet(hour=4) == 0  # only 1 quiet hour
        assert store.resolve_quiet(hour=5) == 1
        assert incident.status == "resolved" and not incident.active
        assert incident.resolved_hour == 5
        events = [r["event"] for r in store.audit.records]
        assert events == ["open", "acknowledge", "resolve"]
        assert store.counts() == {"open": 0, "acknowledged": 0, "resolved": 1}

    def test_resolved_key_can_reopen_as_a_new_incident(self):
        store = IncidentStore(quiet_hours=1)
        (first,) = store.ingest([_signal(hour=0)], hour=0)
        store.resolve_quiet(hour=1)
        (second,) = store.ingest([_signal(hour=5)], hour=5)
        assert first.incident_id != second.incident_id
        assert second.status == "open"

    def test_resolve_all_closes_everything_at_end_of_stream(self):
        store = IncidentStore()
        store.ingest([_signal(key="a"), _signal(key="b")], hour=0)
        assert store.resolve_all(hour=167) == 2
        assert all(i.status == "resolved" for i in store.history)
        reasons = {r["reason"] for r in store.audit.records
                   if r["event"] == "resolve"}
        assert reasons == {"end-of-stream"}

    def test_audit_ndjson_is_canonical_and_digest_stable(self):
        log = AuditLog()
        log.append({"b": 1, "a": 2, "record": "incident"})
        line = log.to_ndjson()
        assert line == '{"a":2,"b":1,"record":"incident"}\n'
        assert json.loads(line) == {"a": 2, "b": 1, "record": "incident"}
        assert log.digest() == log.digest()

    def test_by_status_filters(self):
        store = IncidentStore()
        store.ingest([_signal(key="a"), _signal(key="b")], hour=0)
        store.resolve(store.history[0], hour=1, reason="manual")
        assert [i.key for i in store.by_status("resolved")] == ["a"]
        assert [i.key for i in store.by_status("open")] == ["b"]
        assert len(store.by_status()) == 2


# ---------------------------------------------------------------------------
# runbooks
# ---------------------------------------------------------------------------


class TestRunbooks:
    def _executor(self, **kwargs):
        audit = AuditLog()
        store = IncidentStore(audit)
        return RunbookExecutor(audit, store, **kwargs), store

    def test_block_emits_entry_active_next_hour_and_dedups(self):
        executor, store = self._executor()
        (first,) = store.ingest(
            [_signal(key="h:1", offenders=(("asn", 64500),))], hour=7)
        assert executor.execute(first, "block", 7) == 1
        (second,) = store.ingest(
            [_signal(key="h:2", offenders=(("asn", 64500),))], hour=9)
        assert executor.execute(second, "block", 9) == 0  # already blocked
        (entry,) = executor.blocklist
        assert (entry.asn, entry.active_from) == (64500, 8.0)
        assert entry.incident_id == first.incident_id
        assert first.status == "acknowledged"
        (action,) = executor.audit.actions("block")
        assert action["incident"] == first.incident_id

    def test_rotate_increments_fingerprint_generation(self):
        executor, store = self._executor()
        for hour in (24, 48):
            (incident,) = store.ingest(
                [_signal(key=f"l:{hour}",
                         offenders=(("service", "TELNET/23"),))], hour=hour)
            executor.execute(incident, "rotate", hour)
        generations = [r["fingerprint_generation"] for r in executor.rotations]
        assert generations == [1, 2]

    def test_reweight_halves_and_floors_region_weight(self):
        executor, store = self._executor(region_of={"v1": "EU"}.get)
        for hour in range(4):
            (incident,) = store.ingest(
                [_signal(key=f"s:{hour}",
                         offenders=(("vantage", "v1"),))], hour=hour)
            executor.execute(incident, "reweight", hour)
        # 1.0 -> 0.5 -> 0.25, then floored: no further action emitted.
        assert executor.region_weights == {"EU": 0.25}
        assert len(executor.audit.actions("reweight")) == 2

    def test_unknown_runbook_is_a_no_op(self):
        executor, store = self._executor()
        (incident,) = store.ingest([_signal()], hour=0)
        assert executor.execute(incident, None, 0) == 0
        assert incident.status == "open"


# ---------------------------------------------------------------------------
# rule fixtures (positive and negative), against minimal stub state
# ---------------------------------------------------------------------------


class _StubWindows:
    def __init__(self, series):
        self._series = {k: np.asarray(v, dtype=np.float64)
                        for k, v in series.items()}

    def keys(self):
        return sorted(self._series)

    def series(self, vantage_id):
        return self._series[vantage_id]

    def keys_at_least(self, hour, minimum):
        return [k for k in self.keys()
                if hour < len(self._series[k]) and self._series[k][hour] >= minimum]


class _StubSketch:
    def __init__(self, counts):
        self._counts = counts

    def top(self, k):
        ranked = sorted(self._counts, key=lambda a: (-self._counts[a], a))
        return ranked[:k]

    def estimate(self, asn):
        return float(self._counts.get(asn, 0))


class _StubContingency:
    def __init__(self, per_vantage):
        self._per = per_vantage

    def groups(self):
        return sorted(self._per)

    def sketch(self, vantage_id):
        return _StubSketch(self._per[vantage_id])

    def groups_at_least(self, totals, minimum):
        return [g for g in self.groups() if totals.get(g, 0) >= minimum]


class _StubAnalyzer:
    def __init__(self, series=None, as_counts=None, totals=None, leak=None):
        self.windows = _StubWindows(series or {})
        self.contingency = (
            {"as": _StubContingency(as_counts)} if as_counts else {}
        )
        self.events_per_vantage = dict(totals or {})
        self.leak = leak

    def top(self, characteristic, vantage_id, k):
        return []


def _payload_frame(vantage_id, payload, asns, stamps):
    """A campaign-batch run as a one-chunk frame: one bytes payload
    broadcast over its rows."""
    from repro.io.table import EventTable
    from repro.sim.events import NetworkKind
    from repro.stream.bus import StreamFrame

    columns = {
        "timestamps": np.asarray(stamps, dtype=np.float64),
        "src_asn": np.asarray(asns, dtype=np.int64),
        "payload": payload,
    }
    source = EventTable(vantage_id, "aws", NetworkKind.CLOUD, "US-EAST")
    return StreamFrame.from_chunks([(source, columns, 0, len(stamps))])


def _canonical_runs(tables, hours):
    """The canonical replay cell by cell: per (vantage, hour) cell, the
    run ``(table, columns, start, stop)`` of the replay's columns."""
    frame = canonical_frame(tables, hours)
    columns = {name: frame.column(name) for name in COLUMNS}
    offsets = frame.offsets.tolist()
    return [(source, columns, offsets[index], offsets[index + 1])
            for index, source in enumerate(frame.sources)]


class TestVolumeSpikeRule:
    def test_spike_over_trailing_baseline_fires(self):
        rule = VolumeSpikeRule(min_history=6, min_events=32.0)
        series = [10.0] * 10 + [120.0]
        analyzer = _StubAnalyzer(series={"v1": series})
        (signal,) = rule.evaluate(analyzer, hour=10)
        assert signal.key == "spike:v1"
        assert signal.offenders == (("vantage", "v1"),)
        assert signal.details["value"] == 120.0

    def test_quiet_small_and_warming_up_hours_stay_silent(self):
        rule = VolumeSpikeRule(min_history=6, min_events=32.0)
        flat = _StubAnalyzer(series={"v1": [10.0] * 11})
        assert rule.evaluate(flat, hour=10) == []
        small_spike = _StubAnalyzer(series={"v1": [1.0] * 10 + [20.0]})
        assert rule.evaluate(small_spike, hour=10) == []  # < min_events
        early = _StubAnalyzer(series={"v1": [0.0, 0.0, 120.0]})
        assert rule.evaluate(early, hour=2) == []  # < min_history


class TestNewHeavyHitterRule:
    def test_new_entrant_after_warmup_fires_once(self):
        rule = NewHeavyHitterRule(k=3, warmup_hours=6,
                                  min_vantage_events=100, min_share=0.15)
        warm = _StubAnalyzer(as_counts={"v1": {111: 90, 222: 10}},
                             totals={"v1": 100})
        assert rule.evaluate(warm, hour=2) == []  # warmup: recorded, silent
        hot = _StubAnalyzer(as_counts={"v1": {111: 90, 222: 10, 333: 60}},
                            totals={"v1": 160})
        (signal,) = rule.evaluate(hot, hour=7)
        assert signal.key == "heavy:v1:333"
        assert ("asn", 333) in signal.offenders
        assert rule.evaluate(hot, hour=8) == []  # already known

    def test_sparse_vantage_and_thin_share_stay_silent(self):
        rule = NewHeavyHitterRule(k=3, warmup_hours=0,
                                  min_vantage_events=100, min_share=0.15)
        sparse = _StubAnalyzer(as_counts={"v1": {333: 50}}, totals={"v1": 50})
        assert rule.evaluate(sparse, hour=7) == []
        thin = _StubAnalyzer(as_counts={"v1": {111: 990, 333: 10}},
                             totals={"v1": 1000})
        # AS111 (99%) is a real heavy hitter; AS333 (1%) is below
        # min_share and must not ride along.
        keys = {signal.key for signal in rule.evaluate(thin, hour=7)}
        assert keys == {"heavy:v1:111"}


class TestCampaignOnsetRule:
    PAYLOAD = b"GET /shell?cd+/tmp HTTP/1.1\r\nHost: x\r\n\r\n"

    def _observe(self, rule, vantage_id, stamp, count=10):
        rule.observe(_payload_frame(
            vantage_id, self.PAYLOAD,
            asns=[64500] * count,
            stamps=[stamp] * count,
        ))

    def test_multi_vantage_fingerprint_fires_once(self):
        rule = CampaignOnsetRule(min_vantages=3, min_events=24, warmup_hours=6)
        for vantage_id in ("v1", "v2"):
            self._observe(rule, vantage_id, stamp=10.0)
        assert rule.evaluate(_StubAnalyzer(), hour=10) == []  # 2 < 3 vantages
        self._observe(rule, "v3", stamp=11.0)
        (signal,) = rule.evaluate(_StubAnalyzer(), hour=11)
        assert signal.key.startswith("campaign:")
        assert signal.offenders == (("asn", 64500),)
        assert signal.details["events"] == 30
        assert rule.evaluate(_StubAnalyzer(), hour=12) == []  # one-shot

    def test_warmup_fingerprints_are_grandfathered(self):
        rule = CampaignOnsetRule(min_vantages=2, min_events=8, warmup_hours=6)
        for vantage_id in ("v1", "v2", "v3"):
            self._observe(rule, vantage_id, stamp=1.0)  # before warmup
        assert rule.evaluate(_StubAnalyzer(), hour=10) == []
        # ... and it stays grandfathered even as it keeps spreading.
        self._observe(rule, "v4", stamp=20.0)
        assert rule.evaluate(_StubAnalyzer(), hour=21) == []


class _StubAlarm:
    service = "TELNET/23"
    group = "pastebin"
    stochastically_greater = True
    fold = 3.2
    mwu_p = 0.01
    ks_p = 0.02
    trailing_hours = 24


class _StubLeak:
    def __init__(self, alarms):
        self._alarms = alarms

    def evaluate(self, trailing_hours, alpha):
        return self._alarms


class TestCredentialLeakRule:
    def test_stochastically_greater_group_fires(self):
        rule = CredentialLeakRule()
        analyzer = _StubAnalyzer(leak=_StubLeak([_StubAlarm()]))
        (signal,) = rule.evaluate(analyzer, hour=23)
        assert signal.key == "leak:TELNET/23:pastebin"
        assert signal.offenders == (
            ("service", "TELNET/23"), ("group", "pastebin"))
        assert rule.cadence == 24

    def test_quiet_groups_and_absent_experiment_stay_silent(self):
        quiet = _StubAlarm()
        quiet.stochastically_greater = False
        rule = CredentialLeakRule()
        assert rule.evaluate(
            _StubAnalyzer(leak=_StubLeak([quiet])), hour=23) == []
        assert rule.evaluate(_StubAnalyzer(leak=None), hour=23) == []


# ---------------------------------------------------------------------------
# enforcement masks
# ---------------------------------------------------------------------------


class TestActiveBlocklist:
    def test_entries_activate_at_their_hour_not_before(self):
        blocklist = ActiveBlocklist(asn_entries=[(64500, 10.0)])
        stamps = np.array([9.5, 10.0, 11.0])
        asns = np.array([64500, 64500, 64500])
        assert blocklist.blocked_mask(stamps, asns).tolist() == [
            False, True, True]
        assert blocklist.keep_mask(stamps, asns).tolist() == [
            True, False, False]

    def test_ip_and_asn_entries_compose(self):
        blocklist = ActiveBlocklist(
            asn_entries=[(64500, 0.0)], ip_entries=[(167772161, 5.0)])
        stamps = np.array([1.0, 6.0, 6.0])
        asns = np.array([1, 1, 64500])
        ips = np.array([167772161, 167772161, 5])
        assert blocklist.blocked_mask(stamps, asns, ips).tolist() == [
            False, True, True]

    def test_duplicate_entries_keep_earliest_activation(self):
        blocklist = ActiveBlocklist(asn_entries=[(64500, 20.0), (64500, 4.0)])
        assert blocklist.blocked_mask(
            np.array([5.0]), np.array([64500])).tolist() == [True]
        assert len(blocklist) == 1

    def test_empty_blocklist_keeps_everything(self):
        blocklist = ActiveBlocklist()
        stamps = np.arange(4, dtype=np.float64)
        assert blocklist.keep_mask(stamps, np.zeros(4, dtype=np.int64)).all()


# ---------------------------------------------------------------------------
# the determinism headline: byte-identical audit logs across shardings
# ---------------------------------------------------------------------------


class TestAuditDeterminism:
    def test_audit_log_identical_across_1_2_4_shard_runs(
            self, tiny, tiny_pipeline, tmp_path_factory):
        reference = tiny_pipeline.audit.digest()
        assert len(tiny_pipeline.store.history) > 0
        for num_shards in (1, 2, 4):
            out = tmp_path_factory.mktemp(f"det{num_shards}") / "run"
            run = orchestrate(
                TINY, workers=1, out_dir=out,
                num_shards=num_shards, quiet=True,
            )
            assert not run.partial
            _config, dataset, _digest = load_run_dir(out)
            pipeline = detect_incidents(dataset)
            assert pipeline.audit.digest() == reference, (
                f"{num_shards}-shard audit log diverged from in-process")
            assert pipeline.audit.to_ndjson() == tiny_pipeline.audit.to_ndjson()

    def test_canonical_replay_is_hour_major_vantage_minor(self, tiny):
        hours = int(tiny.dataset.window.hours)
        last = (-1, "")
        total = 0
        for source, columns, start, stop in _canonical_runs(tiny.dataset.tables, hours):
            stamps = np.asarray(columns["timestamps"][start:stop], dtype=np.float64)
            bins = np.minimum(stamps.astype(np.int64), hours - 1)
            assert bins.min() == bins.max(), "chunk spans hours"
            key = (int(bins[0]), str(source.vantage_id))
            assert key > last, f"out of order: {last} -> {key}"
            last = key
            total += stop - start
        assert total == sum(len(t) for t in tiny.dataset.tables.values())

    def test_canonical_replay_drops_rows_outside_the_window(self):
        """A row before hour 0 or past ``hours`` is not replayed, as
        ``hourly_volumes`` does not count it; a row at exactly ``hours``
        is replayed in the last hour."""
        from repro.io.table import EventTable
        from repro.net.packets import Transport
        from repro.sim.events import NetworkKind
        from repro.stats.volume import hourly_volumes

        hours = 4
        stamps = np.array([-0.5, 0.5, 3.0, 4.0, 4.5])
        table = EventTable("v0", "aws", NetworkKind.CLOUD, "US-EAST")
        table.append_batch(stamps, np.arange(1, 6), np.full(5, 7), 99, 22,
                           Transport.TCP, True, b"")
        counts = hourly_volumes(table.timestamps, hours)
        assert counts.tolist() == [1.0, 0.0, 0.0, 2.0]

        runs = _canonical_runs({"v0": table}, hours)
        replayed = np.concatenate([columns["timestamps"][start:stop]
                                   for _source, columns, start, stop in runs])
        assert replayed.tolist() == [0.5, 3.0, 4.0]
        assert np.array_equal(hourly_volumes(replayed, hours), counts)
        assert len(runs) == 2  # one cell each for hours 0 and 3


# ---------------------------------------------------------------------------
# the post-hoc replay builds only the sketches its rules read
# ---------------------------------------------------------------------------


def _replay_signals(dataset, rule, characteristics) -> list:
    """Every signal ``rule`` emits over the canonical replay, at the
    hours and cadence the pipeline evaluates it, on an analyzer that
    sketches ``characteristics``."""
    hours = int(dataset.window.hours)
    analyzer = StreamAnalyzer(hours=hours, leak_experiment=dataset.leak_experiment,
                              characteristics=characteristics)
    cutter = IncidentPipeline(analyzer, rules=())
    signals: list = []
    evaluated = 0

    def evaluate_through(stop):
        nonlocal evaluated
        while evaluated < stop:
            if evaluated == hours - 1 or (evaluated + 1) % rule.cadence == 0:
                signals.extend(rule.evaluate(analyzer, evaluated))
            evaluated += 1

    replay = canonical_frame(dataset.tables, hours)
    for frame in replay.split(cutter.cuts(replay)):
        analyzer.consume(frame)
        rule.observe(frame)
        evaluate_through(analyzer.windows.sealed_hours())
    evaluate_through(hours)
    return signals


class TestNarrowedReplay:
    @pytest.mark.parametrize("rule_type", [type(rule) for rule in default_rules()],
                             ids=lambda rule_type: rule_type.name)
    def test_rule_reads_only_what_it_declares(self, tiny, rule_type):
        """A rule given an analyzer that holds only its ``reads`` emits
        what it emits over the full analyzer; reading an undeclared
        sketch fails here."""
        full = _replay_signals(tiny.dataset, rule_type(), CHARACTERISTICS)
        narrowed = _replay_signals(tiny.dataset, rule_type(), rule_type.reads)
        assert narrowed == full

    def test_replay_builds_the_union_of_its_rules_reads(self, tiny, tiny_pipeline):
        assert tiny_pipeline.analyzer.characteristics == ("as",)

        class _PayloadProbe(IncidentRule):
            name = "payload-probe"
            reads = ("payload",)

            def evaluate(self, analyzer, hour):
                return []

        pipeline = detect_incidents(tiny.dataset, rules=default_rules() + (_PayloadProbe(),))
        assert pipeline.analyzer.characteristics == ("as", "payload")
        assert len(pipeline.analyzer.contingency["payload"]) > 0
        assert pipeline.audit.to_ndjson() == tiny_pipeline.audit.to_ndjson()


# ---------------------------------------------------------------------------
# serve endpoints: live vs run-dir parity
# ---------------------------------------------------------------------------


class TestServeEndpoints:
    def test_live_and_run_dir_incidents_answer_identically(
            self, tiny, run_dir):
        hours = int(tiny.dataset.window.hours)
        bus, _analyzer, _tracker, live = build_live_pipeline(
            hours, leak_experiment=tiny.dataset.leak_experiment,
            incidents=True,
        )
        for run in _canonical_runs(tiny.dataset.tables, hours):
            bus.publish(*run)
        bus.close()
        with live.lock:
            live.pipeline.finalize()

        batch = RunDirBackend(run_dir)
        for query in (IncidentsQuery(), IncidentsQuery(status="resolved")):
            a = live.incidents(query)
            b = batch.incidents(query)
            assert a.pop("backend") == "live"
            assert b.pop("backend") == "run-dir"
            assert a == b
            assert a["enabled"] and a["incidents"]
        a = live.actions(ActionsQuery())
        b = batch.actions(ActionsQuery())
        assert a.pop("backend") != b.pop("backend")
        assert a == b
        assert a["audit_digest"] == b["audit_digest"]
        blocked = live.actions(ActionsQuery(action="block"))
        assert {r["action"] for r in blocked["actions"]} <= {"block"}

    def test_live_serve_finalizes_detection_after_ingest(self):
        """`serve --simulate --incidents` finalizes detection once ingest
        ends: its /incidents and /actions equal an in-process tapped run
        of the same seed plus finalize()."""
        import os
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request
        from pathlib import Path

        import repro
        from repro.deployment.fleet import build_full_deployment
        from repro.experiments.context import _WINDOWS
        from repro.scanners.population import PopulationConfig, build_population
        from repro.sim.engine import SimulationConfig, run_simulation
        from repro.sim.rng import RngHub

        window = _WINDOWS[TINY.year]
        deployment = build_full_deployment(
            RngHub(TINY.seed), num_telescope_slash24s=TINY.telescope_slash24s)
        bus, _analyzer, _tracker, live = build_live_pipeline(
            window.hours, leak_experiment=deployment.leak_experiment,
            incidents=True,
        )
        run_simulation(
            deployment,
            build_population(PopulationConfig(year=TINY.year, scale=TINY.scale)),
            SimulationConfig(seed=TINY.seed, window=window),
            tap=bus.publish,
        )
        bus.close()
        with live.lock:
            live.pipeline.finalize()
        expected = {
            "/incidents": live.incidents(IncidentsQuery()),
            "/actions": live.actions(ActionsQuery()),
        }
        expected = json.loads(json.dumps(expected))
        assert expected["/incidents"]["incidents"]

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--simulate", "--incidents",
             "--scale", str(TINY.scale), "--telescope", str(TINY.telescope_slash24s),
             "--seed", str(TINY.seed), "--port", "0", "--duration", "300"],
            stdout=subprocess.PIPE, text=True, env=env,
        )

        def get(path):
            with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                        timeout=30) as response:
                return json.loads(response.read())

        try:
            port = int(re.search(r"on http://[0-9.]+:(\d+)",
                                 process.stdout.readline()).group(1))
            deadline = time.monotonic() + 120
            while (get("/actions")["audit_digest"] != expected["/actions"]["audit_digest"]
                   and time.monotonic() < deadline):
                time.sleep(0.2)
            assert get("/actions") == expected["/actions"]
            assert get("/incidents") == expected["/incidents"]
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_disabled_live_backend_reports_enabled_false(self, tiny):
        _bus, _analyzer, _tracker, live = build_live_pipeline(
            8, incidents=False)
        response = live.incidents(IncidentsQuery())
        assert response == {"backend": "live", "enabled": False,
                            "counts": None, "incidents": []}
        actions = live.actions(ActionsQuery())
        assert actions["enabled"] is False and actions["blocklist"] == []

    def test_incidents_query_contract(self):
        assert IncidentsQuery.parse({}).status is None
        assert IncidentsQuery.parse({"status": "open"}).status == "open"
        with pytest.raises(SchemaError) as excinfo:
            IncidentsQuery.parse({"status": "bogus"})
        assert excinfo.value.errors[0]["field"] == "status"
        with pytest.raises(SchemaError):
            IncidentsQuery.parse({"nope": "1"})
        assert ActionsQuery.parse({"action": "block"}).action == "block"
        with pytest.raises(SchemaError):
            ActionsQuery.parse({"action": "nuke"})


# ---------------------------------------------------------------------------
# blocklist files: one parser for external lists, respond output, X5
# ---------------------------------------------------------------------------


class TestBlocklistFiles:
    def test_parses_ips_asns_comments_and_blanks(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text(
            "# threat intel, 2021-06\n"
            "10.0.0.1\n"
            "\n"
            "AS64500  # inline comment\n"
            "167772162\n"
        )
        ips, asns = validate_blocklist_file(path)
        assert ips == (167772161, 167772162)
        assert asns == (64500,)

    def test_bad_lines_accumulate_structured_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10.0.0.1\nnot-an-ip\nAS-5\n999.1.1.1\n")
        with pytest.raises(SchemaError) as excinfo:
            validate_blocklist_file(path)
        fields = [e["field"] for e in excinfo.value.errors]
        assert fields == ["blocklist:2", "blocklist:3", "blocklist:4"]

    def test_missing_and_oversized_files_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(SchemaError):
            validate_blocklist_file(tmp_path / "absent.txt")
        import repro.serve.schema as schema

        big = tmp_path / "big.txt"
        big.write_text("10.0.0.1\n" * 4)
        monkeypatch.setattr(schema, "MAX_BLOCKLIST_BYTES", 8)
        with pytest.raises(SchemaError) as excinfo:
            schema.validate_blocklist_file(big)
        assert "exceeds" in excinfo.value.errors[0]["message"]

    def test_write_load_round_trip(self, tmp_path):
        from repro.analysis.blocklists import (
            load_blocklist_file,
            write_blocklist_file,
        )

        path = tmp_path / "out.txt"
        count = write_blocklist_file(
            path, ips=[167772162, 167772161], asns=[64501, 64500])
        assert count == 4
        ips, asns = load_blocklist_file(path)
        assert ips == (167772161, 167772162)
        assert asns == (64500, 64501)

    def test_x1_accepts_external_blocklist_file(self, tiny, tmp_path):
        from repro.experiments import ext_blocklists

        path = tmp_path / "ext.txt"
        path.write_text("AS4134\nAS4837\n")
        output = ext_blocklists.run(tiny, blocklist_path=str(path))
        assert "file" in output.text
        assert "coverage" in output.text.lower()


# ---------------------------------------------------------------------------
# the closed loop (X5)
# ---------------------------------------------------------------------------


class TestClosedLoop:
    def test_metrics_and_enforced_resim_agree_exactly(self, tiny):
        from repro.experiments.ext_closed_loop import closed_loop_metrics

        metrics = closed_loop_metrics(tiny, verify_resim=True)
        assert metrics["incidents"] >= 1
        assert metrics["blocklist_entries"]
        assert 0.0 < metrics["auto_volume_reduction_pct"] < 100.0
        assert metrics["static_blocklist_size"] > 0
        assert metrics["mean_detection_latency_hours"] > 0.0
        resim = metrics["resim"]
        assert resim["exact"]
        assert resim["enforced_events"] == (
            resim["baseline_events"] - metrics["auto_blocked_events"])

    def test_sharded_run_reproduces_in_process_metrics(self, tiny, run_dir):
        from types import SimpleNamespace

        from repro.experiments.ext_closed_loop import closed_loop_metrics

        reference = closed_loop_metrics(tiny, verify_resim=False)
        _config, dataset, _digest = load_run_dir(run_dir)
        sharded = closed_loop_metrics(
            SimpleNamespace(dataset=dataset, config=TINY, deployment=None),
            verify_resim=False,
        )
        for key in (
            "audit_digest", "total_events", "auto_blocked_events",
            "static_blocked_events", "static_blocklist_size",
            "mean_detection_latency_hours", "blocklist_entries",
        ):
            assert sharded[key] == reference[key], key

    def test_x5_output_renders_all_three_arms(self, tiny):
        from repro.experiments import ALL_EXPERIMENTS

        output = ALL_EXPERIMENTS["X5"](tiny)
        assert output.experiment_id == "X5"
        for arm in ("none (baseline)", "closed loop (auto)",
                    "static (paper-style)"):
            assert arm in output.text
        assert "re-simulation" in output.text.lower()
        assert output.data["resim"]["exact"]


# ---------------------------------------------------------------------------
# snapshot + respond CLI surface
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_snapshot_renders_incident_line_and_json_round_trips(
            self, tiny_pipeline):
        snapshot = tiny_pipeline.analyzer.snapshot()
        snapshot.incidents = tiny_pipeline.summary()
        text = snapshot.render()
        assert "incidents:" in text
        assert "blocklist" in text
        payload = json.loads(json.dumps(snapshot.as_dict(), sort_keys=True))
        assert payload["incidents"]["incidents"] == len(
            tiny_pipeline.store.history)
        assert payload["events"] == tiny_pipeline.analyzer.events_consumed

    def test_respond_cli_writes_audit_log_and_blocklist(
            self, run_dir, tmp_path, capsys):
        from repro.analysis.blocklists import load_blocklist_file
        from repro.cli import main

        audit_path = tmp_path / "audit.ndjson"
        blocklist_path = tmp_path / "auto.txt"
        rc = main([
            "respond", "--run-dir", str(run_dir),
            "--audit-log", str(audit_path),
            "--blocklist-out", str(blocklist_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "incident census" in out
        records = [json.loads(line)
                   for line in audit_path.read_text().splitlines()]
        assert records and any(r.get("record") == "action" for r in records)
        ips, asns = load_blocklist_file(blocklist_path)
        assert asns and not ips
