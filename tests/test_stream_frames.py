"""Frame-batched ingest: a frame must equal its chunks fed one at a time.

The stream and incident layers consume :class:`StreamFrame` objects —
ordered runs of chunks processed in one vectorized pass.  The property
tests here feed random chunk sequences both ways and require identical
state everywhere it is observable: sketch counts/errors/totals (against
an independent chunk-by-chunk Space-Saving oracle too), window series
and watermark, HyperLogLog registers, leak series, reputation records,
and the incident audit log.  The pinned tests hold watch and respond
output to values computed before frames existed.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deployment.fleet import LeakExperiment, LeakGroup
from repro.detection.coder import PayloadCoder
from repro.detection.engine import RuleEngine
from repro.detection.rules import parse_rules
from repro.experiments import ExperimentConfig, get_context
from repro.incident.pipeline import IncidentPipeline, canonical_frame, detect_incidents
from repro.incident.rules import (
    CampaignOnsetRule,
    CredentialLeakRule,
    NewHeavyHitterRule,
    Signal,
    VolumeSpikeRule,
)
from repro.io.table import COLUMNS, EventTable, concat_runs
from repro.runner import orchestrate
from repro.scanners.payloads import strip_ephemeral_headers
from repro.serve.backends import LockedConsumer, ReputationTracker
from repro.sim.events import NetworkKind
from repro.stream.analyzer import CHARACTERISTICS, StreamAnalyzer
from repro.stream.bus import StreamBus, StreamFrame, frame_cuts
from repro.stream.sketches import (
    HyperLogLog,
    HyperLogLogBank,
    KeyedRows,
    StreamingContingency,
    category_codes,
)
from repro.stream.watch import WatchOptions, watch_run_dir
from repro.stream.windows import TumblingWindows

HOURS = 6
VANTAGES = ("v0", "v1", "v2")
#: The capture table each vantage's chunks are published with (empty:
#: a chunk's rows live in its own columns).
SOURCES = {vantage: EventTable(vantage, "aws", NetworkKind.CLOUD, f"R-{vantage}")
           for vantage in VANTAGES}
#: Small enough that every sketch evicts.
SKETCH_K = 3
LEAK = LeakExperiment(
    control_ips=(1001, 1002),
    previously_leaked_ips=(1003,),
    leak_groups=(
        LeakGroup("censys", "http", 80, (1004, 1005)),
        LeakGroup("shodan", "ssh", 22, (1006,)),
    ),
)

#: Per-column value pools (scalars for broadcast chunks, rows otherwise).
POOLS = {
    "src_ip": st.integers(min_value=1, max_value=40),
    "src_asn": st.sampled_from([64500, 64501, 64502, 4134, 9, 77777, 398324, 10439]),
    "dst_ip": st.sampled_from([1001, 1002, 1003, 1004, 1005, 1006, 2000, 2001]),
    "dst_port": st.sampled_from([22, 23, 80, 8080]),
    "payload": st.sampled_from([
        b"", b"",
        b"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: b\r\n\r\n",
        b"GET /shell HTTP/1.1\r\nDate: x\r\n\r\n",
        b"\x16\x03\x01\x00",
        b"SSH-2.0-Go",
    ]),
    "credentials": st.sampled_from([
        (), (),
        (("root", "admin"),),
        (("root", "1234"), ("admin", "admin")),
        (("user", "user"),),
        (("pi", "raspberry"), ("root", "root"), ("ubnt", "ubnt")),
    ]),
}
#: Event times: in-window, the window's edges, and out-of-range both ways.
STAMPS = st.one_of(
    st.floats(min_value=0.0, max_value=HOURS, exclude_max=True, allow_nan=False),
    st.sampled_from([0.0, -0.5, -3.0, HOURS + 0.5, HOURS + 40.0]),
)


def _column(values: list, pad: int, dtype):
    """``values`` embedded at ``[pad, pad + n)`` of a longer column."""
    column = np.empty(pad + len(values) + 1, dtype=dtype)
    for index in range(len(column)):  # tuples stay single objects
        column[index] = values[min(max(index - pad, 0), len(values) - 1)]
    return column


@st.composite
def chunk_sequences(draw):
    """Published runs, ``(source, columns, start, stop)`` each."""
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        vantage = draw(st.sampled_from(VANTAGES))
        length = draw(st.integers(min_value=1, max_value=6))
        pad = draw(st.integers(min_value=0, max_value=2))
        broadcast = draw(st.booleans())
        columns = {
            "timestamps": _column(
                draw(st.lists(STAMPS, min_size=length, max_size=length)), pad, np.float64
            ),
            "transport_code": 0,
            "handshake": True,
            "commands": (),
        }
        for name, pool in POOLS.items():
            dtype = object if name in ("payload", "credentials") else np.int64
            if broadcast:
                columns[name] = draw(pool)
            else:
                columns[name] = _column(
                    draw(st.lists(pool, min_size=length, max_size=length)), pad, dtype
                )
        chunks.append((SOURCES[vantage], columns, pad, pad + length))
    # One chunk stamped exactly at the window's end: it seals the last
    # hour through the watermark, before finalize() does.
    sealing = dict(chunks[0][1], timestamps=np.asarray([float(HOURS)]))
    position = draw(st.integers(min_value=0, max_value=len(chunks)))
    chunks.insert(position, (SOURCES["v1"], sealing, 0, 1))
    return chunks


@st.composite
def framings(draw):
    """A chunk sequence and a random partition of it into frames."""
    chunks = draw(chunk_sequences())
    cuts = draw(st.sets(st.integers(min_value=1, max_value=len(chunks) - 1)
                        if len(chunks) > 1 else st.nothing()))
    bounds = [0, *sorted(cuts), len(chunks)]
    return chunks, list(zip(bounds, bounds[1:]))


def _stack():
    """Analyzer, tracker and pipeline with rules tuned to fire on tiny data."""
    analyzer = StreamAnalyzer(hours=HOURS, sketch_k=SKETCH_K, leak_experiment=LEAK)
    tracker = ReputationTracker(capacity=12)
    rules = (
        VolumeSpikeRule(threshold_sigmas=0.5, min_history=1, min_events=1.0),
        NewHeavyHitterRule(k=2, warmup_hours=1, min_vantage_events=2, min_share=0.05),
        CampaignOnsetRule(min_vantages=2, min_events=2, warmup_hours=1),
        CredentialLeakRule(trailing_hours=3),
    )
    pipeline = IncidentPipeline(analyzer, rules=rules, quiet_hours=2)
    return analyzer, tracker, pipeline


def _fingerprint(analyzer, tracker, pipeline) -> dict:
    """Everything observable about the three consumers' state."""
    def sketches(contingency):
        return [
            (group, [(c, float(n)) for c, n in sketch._counts.items()],
             [(c, float(e)) for c, e in sketch._errors.items()], float(sketch.total))
            for group, sketch in contingency._groups.items()
        ]

    def windows(tumbling):
        return (tumbling.keys(), [tumbling.series(k).tolist() for k in tumbling.keys()],
                tumbling.watermark)

    return {
        "counts": (analyzer.events_consumed, analyzer.chunks_consumed,
                   list(analyzer.events_per_vantage.items())),
        "sketches": {name: sketches(analyzer.contingency[name]) for name in CHARACTERISTICS},
        "windows": windows(analyzer.windows),
        "hll": {key: analyzer.distinct_sources[key]._registers.tobytes()
                for key in analyzer.distinct_sources},
        "leak": windows(analyzer.leak.windows),
        "state_bytes": analyzer.state_bytes(),
        "tracker": (list(tracker._records.items()), tracker.evicted),
        "regions": pipeline.regions,
        "audit": pipeline.audit.to_ndjson(),
    }


def _one_at_a_time(chunks):
    """Every consumer fed one-chunk frames, in publish order."""
    analyzer, tracker, pipeline = _stack()
    for chunk in chunks:
        frame = StreamFrame.from_chunks([chunk])
        analyzer.consume(frame)
        tracker.consume(frame)
        pipeline.consume(frame)
    pipeline.finalize()
    return analyzer, tracker, pipeline


def _rows(chunk, name: str) -> np.ndarray:
    """One chunk's rows of a column, sliced from its own columns (a
    scalar broadcast over the chunk), without the frame path."""
    _source, columns, start, stop = chunk
    value = columns[name]
    if isinstance(value, np.ndarray):
        return value[start:stop]
    if isinstance(value, (bytes, tuple)):
        rows = np.empty(stop - start, dtype=object)
        rows[:] = [value] * (stop - start)
        return rows
    return np.full(stop - start, value)


def _chunkwise_oracle(chunks):
    """Sketches, windows and HLLs the pre-frame way: per chunk, through
    the plain single-key APIs (an oracle independent of the frame path)."""
    contingency = {name: StreamingContingency(SKETCH_K) for name in CHARACTERISTICS}
    hlls: dict = {}
    for chunk in chunks:
        vantage = chunk[0].vantage_id
        counters = {name: Counter() for name in CHARACTERISTICS}
        for asn in _rows(chunk, "src_asn").tolist():
            counters["as"][int(asn)] += 1
        for payload in _rows(chunk, "payload"):
            if payload:
                counters["payload"][strip_ephemeral_headers(payload)] += 1
        for pairs in _rows(chunk, "credentials"):
            for username, password in pairs:
                counters["username"][username] += 1
                counters["password"][password] += 1
        for name, counts in counters.items():
            if counts:
                contingency[name].update_counts(vantage, counts)
        hlls.setdefault(vantage, HyperLogLog(12)).add_ints(_rows(chunk, "src_ip"))
    return contingency, hlls


class TestFrameEqualsChunks:
    @given(framing=framings())
    @settings(max_examples=120, deadline=None)
    def test_random_frames_match_one_chunk_at_a_time(self, framing):
        chunks, bounds = framing
        reference = _fingerprint(*_one_at_a_time(chunks))

        analyzer, tracker, pipeline = _stack()
        for lo, hi in bounds:
            frame = StreamFrame.from_chunks(chunks[lo:hi])
            # The bus's contract: end a frame wherever a consumer reads.
            for part in frame.split(frame_cuts([pipeline], frame)):
                analyzer.consume(part)
                tracker.consume(part)
                pipeline.consume(part)
        pipeline.finalize()
        assert _fingerprint(analyzer, tracker, pipeline) == reference

        contingency, hlls = _chunkwise_oracle(chunks)
        for name in CHARACTERISTICS:
            ours = analyzer.contingency[name]
            assert ours.groups() == contingency[name].groups()
            for group in ours.groups():
                mine, theirs = ours.sketch(group), contingency[name].sketch(group)
                assert mine.counts() == theirs.counts()
                assert mine._errors == theirs._errors
                assert mine.total == theirs.total
        for vantage, hll in hlls.items():
            assert np.array_equal(analyzer.distinct_sources[vantage]._registers,
                                  hll._registers)

    @given(chunks=chunk_sequences(), queue=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_bus_with_locked_fanout_matches_one_chunk_at_a_time(self, chunks, queue):
        """Through the bus and the serve layer's locked fan-out, with the
        buffer bound (so the flush points) drawn at random."""
        reference = _fingerprint(*_one_at_a_time(chunks))
        analyzer, tracker, pipeline = _stack()
        bus = StreamBus(max_buffered_events=queue)
        bus.subscribe(LockedConsumer(threading.Lock(), analyzer, tracker, pipeline))
        for chunk in chunks:
            bus.publish(*chunk)
        bus.close()
        pipeline.finalize()
        assert _fingerprint(analyzer, tracker, pipeline) == reference
        assert bus.stats.delivered_chunks == len(chunks)
        assert bus.stats.delivered_events == sum(stop - start for *_, start, stop in chunks)


class TestFrameSplit:
    def _frame(self, lengths):
        return StreamFrame.from_chunks(
            [(SOURCES["v0"], {"timestamps": np.full(n, 0.5)}, 0, n) for n in lengths]
        )

    def test_cuts_end_frames_after_the_named_chunks(self):
        frame = self._frame([2, 2, 2, 2, 2])
        parts = list(frame.split([1, 2], max_events=100))
        assert [part.num_chunks for part in parts] == [2, 1, 2]
        assert [len(part) for part in parts] == [4, 2, 4]

    def test_size_bound_never_splits_a_chunk(self):
        frame = self._frame([3, 3, 9, 1, 1])
        parts = list(frame.split(max_events=6))
        assert [part.lengths.tolist() for part in parts] == [[3, 3], [9], [1, 1]]

    def test_sub_frames_resolve_only_their_rows(self):
        frame = self._frame([1, 2, 3])
        _first, second = frame.split([0], max_events=100)
        assert second.column("timestamps").tolist() == [0.5] * 5
        assert second.chunk_index().tolist() == [0, 0, 1, 1, 1]

    def test_subscribers_get_frames_whose_chunks_are_the_published_runs(self):
        """A subscriber defining only ``consume`` receives StreamFrames,
        one chunk per published run, in publish order."""
        bus = StreamBus()
        frames = []

        class ConsumeOnly:
            def consume(self, frame):
                frames.append(frame)

        bus.subscribe(ConsumeOnly())
        columns = {"timestamps": np.arange(6.0) / 8, "src_asn": 64500}
        runs = [(SOURCES["v0"], columns, 0, 2), (SOURCES["v1"], columns, 2, 3),
                (SOURCES["v0"], columns, 3, 6)]
        for run in runs:
            bus.publish(*run)
        bus.close()
        (frame,) = frames
        assert isinstance(frame, StreamFrame)
        assert frame.lengths.tolist() == [2, 1, 3]
        assert frame.sources == [source for source, *_ in runs]
        assert frame.column("timestamps").tolist() == columns["timestamps"].tolist()
        assert frame.column("src_asn").tolist() == [64500] * 6
        assert bus.stats.delivered_chunks == len(runs)


# ---------------------------------------------------------------------------
# gathered frame columns and per-frame interning
# ---------------------------------------------------------------------------

#: Rows per shared column set: chunks take (possibly overlapping)
#: ranges of a few shared sets, interleaved, as tapped batches and shard
#: banks do.
SET_ROWS = 8


@st.composite
def shared_column_chunks(draw):
    """Chunks over 1-3 shared column sets: arrays or scalar broadcasts
    per column, object columns included, ranges interleaved and
    overlapping."""
    sets = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        columns = {"transport_code": 0, "commands": ()}
        for name, pool in (("timestamps", STAMPS), ("handshake", st.booleans()), *POOLS.items()):
            if draw(st.booleans()):
                columns[name] = draw(pool)
            else:
                dtype = object if name in ("payload", "credentials") else None
                columns[name] = _column(
                    draw(st.lists(pool, min_size=SET_ROWS, max_size=SET_ROWS)), 0,
                    dtype or (np.float64 if name == "timestamps" else
                              bool if name == "handshake" else np.int64),
                )[:SET_ROWS]
        sets.append(columns)
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        columns = sets[draw(st.integers(min_value=0, max_value=len(sets) - 1))]
        start = draw(st.integers(min_value=0, max_value=SET_ROWS - 1))
        stop = draw(st.integers(min_value=start + 1, max_value=SET_ROWS))
        vantage = draw(st.sampled_from(VANTAGES))
        chunks.append((SOURCES[vantage], columns, start, stop))
    return chunks


def _same_column(ours: np.ndarray, reference: np.ndarray) -> bool:
    if ours.dtype != reference.dtype or ours.shape != reference.shape:
        return False
    if ours.dtype == object:
        return all(a is b for a, b in zip(ours.tolist(), reference.tolist()))
    return np.array_equal(ours, reference)


class TestGatheredFrames:
    @given(chunks=shared_column_chunks(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_gathered_columns_equal_per_chunk_concatenation(self, chunks, data):
        """Every column of a frame, and of every sub-frame ``split``
        yields (with some columns resolved on the parent first), equals
        concatenating the chunks' own rows: same dtype, values and
        objects."""
        frame = StreamFrame.from_chunks(chunks)
        early = data.draw(st.lists(st.sampled_from(COLUMNS), max_size=3))
        for name in early:
            frame.column(name)
        cuts = data.draw(st.sets(st.integers(min_value=0, max_value=len(chunks) - 1)))
        max_events = data.draw(st.integers(min_value=1, max_value=3 * SET_ROWS))
        parts = [frame, *frame.split(cuts, max_events=max_events)]
        assert sum(part.num_chunks for part in parts[1:]) == len(chunks)
        # Sub-frames are consecutive: each covers the next num_chunks chunks.
        ends = np.cumsum([part.num_chunks for part in parts[1:]]).tolist()
        bounds = [(0, len(chunks)), *zip([0, *ends], ends)]
        for part, (lo, hi) in zip(parts, bounds):
            assert part.sources == [source for source, *_ in chunks[lo:hi]]
            runs = [(columns, start, stop) for _source, columns, start, stop in chunks[lo:hi]]
            for name in COLUMNS:
                assert _same_column(part.column(name), concat_runs(runs, name)), name

    @given(chunks=shared_column_chunks())
    @settings(max_examples=100, deadline=None)
    def test_interning_equals_category_codes_of_non_empty_values(self, chunks):
        """A frame with a fresh coder codes its non-empty payloads as
        ``category_codes`` does: first-seen order, once per frame."""
        frame = StreamFrame.from_chunks(chunks)
        column = frame.column("payload")
        rows = np.flatnonzero([bool(value) for value in column.tolist()])
        codes, values = category_codes(column[rows].tolist())
        coded = frame.payload_codes()
        assert coded[0].tolist() == rows.tolist()
        assert coded[1].tolist() == codes.tolist()
        assert frame.coder.payload_values == values
        assert frame.payload_codes() is coded  # once per frame


#: Port-scoped rules over the chunk strategies' payloads (the shipped
#: ruleset has no port scopes).
SCOPED_RULES = r"""
alert http any any -> any 80 (msg:"get on 80"; content:"GET"; classtype:attempted-recon; sid:201;)
alert tcp any any -> any [22,23] (msg:"ssh banner"; content:"SSH-"; classtype:attempted-user; sid:202;)
alert http any any -> any any (msg:"shell anywhere"; content:"/shell"; classtype:attempted-admin; sid:203;)
alert http any any -> any 8080 (msg:"dated get"; content:"Date:"; classtype:bad-unknown; sid:204;)
"""


@given(chunks=chunk_sequences(), scoped=st.booleans())
@settings(max_examples=80, deadline=None)
def test_tracker_classifies_like_per_row_rule_calls(chunks, scoped):
    """The tracker's labels, read from the frame's coder, give the
    records the per-row ``is_malicious(payload, port)`` loop gives, port
    scopes included."""
    def engine():
        return RuleEngine(parse_rules(SCOPED_RULES)) if scoped else RuleEngine()

    tracker = ReputationTracker(capacity=1000)
    frame = StreamFrame.from_chunks(chunks, PayloadCoder(engine()))
    tracker.consume(frame)

    reference, expected = engine(), {}
    for ip, asn, pairs, payload, port in zip(
        *(frame.column(name).tolist()
          for name in ("src_ip", "src_asn", "credentials", "payload", "dst_port"))
    ):
        malicious = bool(pairs) or (bool(payload) and reference.is_malicious(payload, port))
        record = expected.pop(ip, None)
        expected[ip] = ([asn, 1, malicious] if record is None else
                        [asn, record[1] + 1, record[2] or malicious])
    assert list(tracker._records.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# prefiltered hourly rules
# ---------------------------------------------------------------------------


class _UnfilteredVolumeSpike(VolumeSpikeRule):
    """The reference loop: every vantage visited, in ``repr`` order."""

    def evaluate(self, analyzer, hour):
        if hour < self.min_history:
            return []
        signals = []
        for vantage_id in analyzer.windows.keys():
            series = analyzer.windows.series(vantage_id)
            if hour >= len(series):
                continue
            value = float(series[hour])
            if value < self.min_events:
                continue
            history = series[:hour]
            mean = float(history.mean())
            std = float(history.std())
            if value <= mean + self.threshold_sigmas * max(std, 1.0):
                continue
            offenders = [("vantage", str(vantage_id))]
            top_as = analyzer.top("as", vantage_id, 1)
            if top_as:
                offenders.append(("asn", int(top_as[0])))
            signals.append(Signal(
                rule=self.name, key=f"spike:{vantage_id}", hour=hour,
                severity=self.severity,
                summary=(f"{vantage_id}: {value:.0f} events in hour {hour} "
                         f"vs baseline {mean:.1f}±{std:.1f}"),
                offenders=tuple(offenders),
                details={"value": value, "baseline_mean": round(mean, 4),
                         "baseline_std": round(std, 4),
                         "threshold_sigmas": self.threshold_sigmas},
            ))
        return signals


class _UnfilteredHeavyHitter(NewHeavyHitterRule):
    """The reference loop: every sketched vantage visited, in ``repr``
    order, its event total tested one by one."""

    def evaluate(self, analyzer, hour):
        contingency = analyzer.contingency.get("as")
        if contingency is None:
            return []
        signals = []
        for vantage_id in contingency.groups():
            total = float(analyzer.events_per_vantage.get(vantage_id, 0))
            if total < self.min_vantage_events:
                continue
            sketch = contingency.sketch(vantage_id)
            top = [int(asn) for asn in sketch.top(self.k)]
            known = self._seen.setdefault(vantage_id, set())
            fresh = [asn for asn in top
                     if asn not in known and sketch.estimate(asn) >= self.min_share * total]
            known.update(top)
            if hour < self.warmup_hours:
                continue
            for asn in fresh:
                share = sketch.estimate(asn) / total
                signals.append(Signal(
                    rule=self.name, key=f"heavy:{vantage_id}:{asn}", hour=hour,
                    severity=self.severity,
                    summary=(f"AS{asn} entered {vantage_id}'s top-{self.k} "
                             f"sources at hour {hour} ({share:.0%} of traffic)"),
                    offenders=(("asn", asn), ("vantage", str(vantage_id))),
                    details={"k": self.k, "share": round(share, 4)},
                ))
        return signals


def test_prefiltered_rules_emit_the_unfiltered_loops_signals():
    """On a real analyzer fed the canonical replay, every sealed hour:
    the prefiltered rules emit exactly the reference loops' signals, in
    the same order — at the stock thresholds and at loose ones that
    pass most vantages."""
    dataset = get_context(
        ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)
    ).dataset
    hours = int(dataset.window.hours)
    analyzer = StreamAnalyzer(hours=hours, leak_experiment=dataset.leak_experiment)
    cutter = IncidentPipeline(analyzer, rules=())
    settings_ = [
        {},
        {"spike": {"threshold_sigmas": 1.0, "min_history": 2, "min_events": 2.0},
         "heavy": {"k": 3, "warmup_hours": 2, "min_vantage_events": 8, "min_share": 0.05}},
    ]
    pairs = []
    for chosen in settings_:
        pairs.append((VolumeSpikeRule(**chosen.get("spike", {})),
                      _UnfilteredVolumeSpike(**chosen.get("spike", {}))))
        pairs.append((NewHeavyHitterRule(**chosen.get("heavy", {})),
                      _UnfilteredHeavyHitter(**chosen.get("heavy", {}))))
    fired = Counter()
    evaluated = 0

    def evaluate_through(hour_stop):
        nonlocal evaluated
        while evaluated < hour_stop:
            for ours, reference in pairs:
                signals = ours.evaluate(analyzer, evaluated)
                assert signals == reference.evaluate(analyzer, evaluated)
                fired[type(ours).__name__] += len(signals)
            evaluated += 1

    replay = canonical_frame(dataset.tables, hours)
    for frame in replay.split(cutter.cuts(replay)):
        analyzer.consume(frame)
        evaluate_through(analyzer.windows.sealed_hours())
    evaluate_through(hours)
    assert fired["VolumeSpikeRule"] > 0 and fired["NewHeavyHitterRule"] > 0


class TestKeyedRows:
    def test_keys_spanning_blocks_match_single_key_state(self):
        """More keys than one block holds: every per-block scatter lands
        where one series / one estimator per key would."""
        rng = np.random.default_rng(3)
        keys = [f"v{index}" for index in range(2 * KeyedRows.BLOCK + 17)]
        codes = rng.integers(0, len(keys), size=20000)
        stamps = rng.uniform(-1.0, 25.0, size=codes.size)
        ips = rng.integers(0, 1 << 32, size=codes.size)
        windows = TumblingWindows(24)
        windows.add_keyed(keys, codes, stamps)
        bank = HyperLogLogBank(10)
        bank.add_keyed(keys, codes, ips)
        assert len(bank) == len(keys) and windows.keys() == sorted(keys, key=repr)
        for code, key in enumerate(keys):
            rows = codes == code
            single = TumblingWindows(24)
            single.add(key, stamps[rows])
            assert np.array_equal(windows.series(key), single.series(key))
            hll = HyperLogLog(10)
            hll.add_ints(ips[rows])
            assert np.array_equal(bank[key]._registers, hll._registers)
        assert windows.watermark == stamps[stamps <= 24].max()


# ---------------------------------------------------------------------------
# pinned watch / respond outputs
# ---------------------------------------------------------------------------

#: Computed before frame-batched ingest existed (chunk-at-a-time
#: consumers), at the tiny test config, 2-shard runs.  Snapshot text is
#: hashed with the ``state ~N B`` figure masked: it sums
#: ``sys.getsizeof`` values, which vary across Python versions.
PINNED = {
    5: {
        "respond_audit_digest":
            "29b31193c21ff7417b1021b0cf1b8fe3e0c2d166d888d1a1345095babc679fbe",
        "watch_audit_digest":
            "288552a4000e12cffdc4006c8d2dd7ca4e89e55e088efd1e0c4aef227d14d309",
        "watch_incidents": {
            "acknowledged": 0, "actions": 11, "audit_records": 53,
            "blocklist_entries": 10, "incidents": 14,
            "last_action": "rotate TELNET/23 (hour 167, INC-0014)",
            "open": 0, "resolved": 14,
        },
        "watch_snapshots": 18,
        "watch_text_sha256":
            "e6ded60d75c9b892853c0b1561c79aa1365e1e1f07cbed1f349fd43747bd315a",
    },
    1: {
        "respond_audit_digest":
            "f17fb9dbc3eb988e94524f0046b1f709b7182d8eba8eb42206126c5787c62316",
        "watch_audit_digest":
            "5112823b7103b707e1a999cc0f46f8a28a85c29f4ff30af1703ead6a63c165c8",
        "watch_incidents": {
            "acknowledged": 0, "actions": 10, "audit_records": 34,
            "blocklist_entries": 10, "incidents": 8,
            "last_action": "block AS56046 (hour 167, INC-0005)",
            "open": 0, "resolved": 8,
        },
        "watch_snapshots": 18,
        "watch_text_sha256":
            "22f5facce6e775eec345c004129fa97e9fffa02d87adab934cc98c863dd7915a",
    },
}

_STATE_BYTES = re.compile(r"state ~[0-9,]+ B")


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_watch_and_respond_outputs_are_pinned(seed, tmp_path):
    """Seal-point and snapshot-point cuts keep every output byte-stable:
    small re-chunking (500 rows) and a 2,500-event snapshot cadence put
    many chunks in each frame and many cuts inside them."""
    config = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=seed)
    run_dir = tmp_path / "run"
    assert not orchestrate(config, workers=1, out_dir=run_dir, num_shards=2,
                           quiet=True).partial
    lines: list[str] = []
    summary = watch_run_dir(
        run_dir,
        WatchOptions(chunk_events=500, snapshot_events=2500,
                     audit_log=str(tmp_path / "audit.ndjson")),
        say=lines.append,
    )
    text = "\n".join(_STATE_BYTES.sub("state ~* B", line) for line in lines)
    pinned = PINNED[seed]
    assert summary["incidents"] == pinned["watch_incidents"]
    assert summary["audit_log"]["digest"] == pinned["watch_audit_digest"]
    assert summary["snapshots"] == pinned["watch_snapshots"]
    assert hashlib.sha256(text.encode()).hexdigest() == pinned["watch_text_sha256"]

    pipeline = detect_incidents(get_context(config).dataset)
    assert pipeline.audit.digest() == pinned["respond_audit_digest"]
