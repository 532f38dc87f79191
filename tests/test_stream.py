"""The streaming subsystem: bus semantics, windows, and the
streaming-vs-batch consistency guarantees of the §3.3 and Table 3
re-implementations.

The consistency class runs one small fixed-seed simulation with the
stream tap attached and checks that the online state converges to the
batch pipeline's answers exactly: per-vantage top-3 sets per
characteristic, streamed φ within 1e-9 of batch φ on the union
categories, hourly windows bit-identical to ``hourly_volumes``, and the
streaming leak alarm matching ``leak_report``'s all-traffic rows.
"""

import numpy as np
import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.leak import leak_report
from repro.deployment.fleet import build_full_deployment
from repro.experiments.context import _WINDOWS
from repro.scanners.population import PopulationConfig, build_population
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.rng import RngHub
from repro.stats.contingency import chi_square_test
from repro.stats.topk import top_k, union_table
from repro.stats.volume import count_spikes, hourly_volumes
from repro.io.table import EventTable, event_columns
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind
from repro.stream.analyzer import CHARACTERISTICS, StreamAnalyzer
from repro.stream.bus import StreamBus, StreamFrame
from repro.stream.windows import TumblingWindows

#: Sketch capacity for the consistency run: must be >= the distinct
#: categories per (vantage, characteristic) at this scale (asserted in
#: the test), which makes every sketch exact.
CONSISTENCY_K = 4096


def _source(vantage_id="v0"):
    """An empty table standing for a published run's capture table."""
    return EventTable(vantage_id, "aws", NetworkKind.CLOUD, "US-EAST")


def _chunk(vantage_id="v0", *, timestamps, **overrides):
    """A published run, ``(source, columns, start, stop)``, over explicit
    columns (scalars broadcast)."""
    length = len(timestamps)
    columns = {
        "timestamps": np.asarray(timestamps, dtype=np.float64),
        "src_ip": overrides.get("src_ip", 100),
        "src_asn": overrides.get("src_asn", 4134),
        "dst_ip": 200,
        "dst_port": overrides.get("dst_port", 23),
        "transport_code": 0,
        "handshake": True,
        "payload": overrides.get("payload", b""),
        "credentials": overrides.get("credentials", ()),
        "commands": (),
    }
    return _source(vantage_id), columns, 0, length


def _live_event() -> CapturedEvent:
    return CapturedEvent(
        vantage_id="live-0", network="stanford", network_kind=NetworkKind.EDU,
        region="US-WEST", timestamp=0.25, src_ip=7, src_asn=4134, dst_ip=8,
        dst_port=23, transport=Transport.TCP, handshake=True,
        payload=b"root", credentials=(("root", "admin"),), commands=(),
    )


class TestStreamChunk:
    """A published run, as the one-chunk frame a subscriber sees."""

    def test_scalar_columns_broadcast(self):
        frame = StreamFrame.from_chunks([_chunk(timestamps=[0.5, 1.5, 2.5], payload=b"GET /")])
        asns = frame.column("src_asn")
        assert asns.tolist() == [4134, 4134, 4134]
        payloads = frame.column("payload")
        assert payloads.dtype == object
        assert payloads.tolist() == [b"GET /", b"GET /", b"GET /"]
        assert len(frame) == 3

    def test_array_columns_sliced(self):
        columns = {"timestamps": np.arange(10.0)}
        frame = StreamFrame.from_chunks([(_source(), columns, 4, 7)])
        assert frame.column("timestamps").tolist() == [4.0, 5.0, 6.0]

    def test_from_event_roundtrip(self):
        bus = StreamBus()
        frames = []

        class Collector:
            def consume(self, frame):
                frames.append(frame)

        bus.subscribe(Collector())
        event = _live_event()
        bus.event_tap()(event)
        bus.close()
        (frame,) = frames
        assert len(frame) == 1 and frame.sources == [event]
        assert frame.vantage_ids == ["live-0"]
        assert frame.column("timestamps")[0] == 0.25
        assert frame.column("credentials")[0] == (("root", "admin"),)

    def test_event_columns_are_what_append_event_stores_and_event_tap_publishes(self):
        """One event-to-columns mapping: a table's one-row run, the run its
        append hook passes on, and the live tap's run are all
        ``event_columns(event)``."""
        event = _live_event()
        expected = event_columns(event)
        bus = StreamBus()
        table = EventTable("live-0", "stanford", NetworkKind.EDU, "US-WEST")
        table.set_append_hook(bus.publish)
        table.append_event(event)
        bus.event_tap()(event)
        (stored,) = table.runs()
        assert stored == (expected, 0, 1)
        hooked, tapped = bus._queue
        assert hooked[0] is table and hooked[1] is stored[0] and hooked[2:] == (0, 1)
        assert tapped == (event, expected, 0, 1)
        assert type(tapped[1]["timestamps"]) is float and type(tapped[1]["src_ip"]) is int


class TestStreamBus:
    def test_in_order_delivery_and_accounting(self):
        bus = StreamBus(max_buffered_events=100)
        seen = []

        class Collector:
            def consume(self, frame):
                seen.append((frame.column("timestamps").tolist(), frame.lengths.tolist()))

        bus.subscribe(Collector())
        bus.publish(*_chunk(timestamps=[0.1, 0.2]))
        bus.publish(*_chunk(timestamps=[0.3]))
        assert bus.buffered_events == 3
        assert bus.flush() == 3
        assert seen == [([0.1, 0.2, 0.3], [2, 1])]
        assert bus.stats.published_events == 3
        assert bus.stats.delivered_events == 3
        assert bus.stats.dropped_events == 0
        assert bus.stats.queue_high_water == 3

    def test_backpressure_policy_never_loses_events(self):
        bus = StreamBus(max_buffered_events=4, policy="backpressure")
        delivered = []

        class Collector:
            def consume(self, frame):
                delivered.append(len(frame))

        bus.subscribe(Collector())
        for _ in range(10):
            assert bus.publish(*_chunk(timestamps=[0.1, 0.2, 0.3]))
        bus.close()
        assert sum(delivered) == 30
        assert bus.stats.delivered_events == 30
        assert bus.stats.dropped_events == 0
        assert bus.stats.backpressure_flushes > 0
        assert bus.stats.queue_high_water <= 4

    def test_drop_policy_counts_losses(self):
        bus = StreamBus(max_buffered_events=4, policy="drop")
        assert bus.publish(*_chunk(timestamps=[0.1, 0.2, 0.3]))
        assert not bus.publish(*_chunk(timestamps=[0.4, 0.5]))  # would overflow
        assert bus.stats.dropped_chunks == 1
        assert bus.stats.dropped_events == 2
        assert bus.flush() == 3

    def test_empty_chunks_ignored(self):
        bus = StreamBus()
        assert bus.publish(*_chunk(timestamps=[]))
        assert bus.stats.published_chunks == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            StreamBus(max_buffered_events=0)
        with pytest.raises(ValueError):
            StreamBus(policy="bogus")


class TestTumblingWindows:
    def test_matches_hourly_volumes_binning(self):
        """Same histogram semantics as the batch bins, including the
        right-closed final bin and out-of-range drops."""
        rng = np.random.default_rng(7)
        stamps = np.concatenate([
            rng.uniform(-2.0, 170.0, size=500),
            np.asarray([0.0, 167.999, 168.0]),  # edges: kept, kept, kept-in-last
        ])
        hours = 168
        windows = TumblingWindows(hours)
        for start in range(0, len(stamps), 37):  # uneven chunking
            windows.add("v0", stamps[start:start + 37])
        assert np.array_equal(windows.series("v0"), hourly_volumes(stamps, hours))

    def test_watermark_and_sealed_prefix(self):
        windows = TumblingWindows(24)
        windows.add("v0", np.asarray([0.5, 3.7]))
        assert windows.watermark == 3.7
        assert windows.sealed_hours() == 3
        assert windows.sealed_series("v0").tolist() == [1.0, 0.0, 0.0]

    def test_spikes_match_batch_detector(self):
        windows = TumblingWindows(24)
        stamps = np.concatenate([
            np.linspace(0.1, 19.9, 40),  # steady background
            np.full(60, 10.5),  # one huge spike hour
            [23.9],  # advance the watermark to seal everything
        ])
        windows.add("v0", stamps)
        assert windows.spikes("v0") == count_spikes(
            hourly_volumes(stamps, 24)[: windows.sealed_hours()]
        )

    def test_unknown_key_is_zero(self):
        windows = TumblingWindows(4)
        assert windows.series("missing").tolist() == [0.0] * 4
        assert windows.rate_per_hour("missing") == 0.0


class TestAnalyzerCharacteristics:
    def test_unknown_characteristic_rejected(self):
        """A misspelt name would otherwise build a sketch nothing feeds."""
        with pytest.raises(ValueError, match="'pasword'"):
            StreamAnalyzer(hours=4, characteristics=("as", "pasword"))

    def test_no_characteristics_keeps_windows_only(self):
        analyzer = StreamAnalyzer(hours=4, characteristics=())
        analyzer.consume(StreamFrame.from_chunks([_chunk(
            timestamps=[0.5, 1.5], payload=b"GET / HTTP/1.1\r\n\r\n",
            credentials=(("root", "admin"),))]))
        assert analyzer.contingency == {}
        assert analyzer.events_consumed == 2
        assert analyzer.windows.series("v0").tolist() == [1.0, 1.0, 0.0, 0.0]
        snapshot = analyzer.snapshot()
        assert snapshot.top_categories == {} and snapshot.comparisons == {}


@pytest.fixture(scope="module")
def streamed_sim():
    """One small tapped simulation + the batch view of the same events."""
    seed, year, scale = 5, 2021, 0.05
    window = _WINDOWS[year]
    deployment = build_full_deployment(RngHub(seed), num_telescope_slash24s=4)
    population = build_population(PopulationConfig(year=year, scale=scale))
    bus = StreamBus()
    analyzer = StreamAnalyzer(
        hours=window.hours,
        sketch_k=CONSISTENCY_K,
        leak_experiment=deployment.leak_experiment,
    )
    bus.subscribe(analyzer)
    result = run_simulation(
        deployment, population,
        SimulationConfig(seed=seed, window=window),
        tap=bus.publish,
    )
    bus.close()
    dataset = AnalysisDataset.from_simulation(result)
    return analyzer, bus, result, dataset



def _exact_counter(dataset, vantage_id, characteristic):
    """A vantage's exact category counts, off the contingency engine."""
    engine = dataset.contingency()
    return engine.counter("any_all", characteristic, [engine.row(vantage_id)])


class TestStreamingBatchConsistency:
    def test_tap_saw_every_event(self, streamed_sim):
        analyzer, bus, result, _dataset = streamed_sim
        assert analyzer.events_consumed == result.total_events()
        assert bus.stats.dropped_events == 0
        for vantage_id, table in result.tables().items():
            if len(table):
                assert analyzer.events_per_vantage[vantage_id] == len(table)

    def test_windows_match_batch_hourly_volumes(self, streamed_sim):
        analyzer, _bus, result, dataset = streamed_sim
        hours = dataset.window.hours
        for vantage_id, table in result.tables().items():
            if not len(table):
                continue
            assert np.array_equal(
                analyzer.windows.series(vantage_id),
                hourly_volumes(table.timestamps, hours),
            ), vantage_id

    def test_sketches_are_exact_at_this_scale(self, streamed_sim):
        """Precondition of the equality tests below: the distinct
        category count never exceeds the sketch capacity."""
        analyzer, _bus, _result, dataset = streamed_sim
        for characteristic in CHARACTERISTICS:
            for vantage_id in analyzer.contingency[characteristic].groups():
                exact = _exact_counter(dataset, vantage_id, characteristic)
                assert len(exact) <= CONSISTENCY_K, (characteristic, vantage_id)

    def test_top3_and_counts_match_batch_everywhere(self, streamed_sim):
        analyzer, _bus, _result, dataset = streamed_sim
        checked = 0
        for characteristic in CHARACTERISTICS:
            contingency = analyzer.contingency[characteristic]
            for vantage_id in contingency.groups():
                exact = _exact_counter(dataset, vantage_id, characteristic)
                sketch = contingency.sketch(vantage_id)
                assert sketch.counts() == {c: float(n) for c, n in exact.items()}
                assert contingency.top(vantage_id, 3) == top_k(exact, 3)
                checked += 1
        assert checked > 8  # the fleet produced a real spread of groups

    def test_phi_matches_batch_within_1e9(self, streamed_sim):
        """The §3.3 top-3-union chi-squared/Cramér's V comparison,
        re-evaluated from the sketches, equals the batch computation."""
        analyzer, _bus, _result, dataset = streamed_sim
        compared = 0
        for characteristic in CHARACTERISTICS:
            contingency = analyzer.contingency[characteristic]
            batch_counts = {}
            for vantage_id in contingency.groups():
                counter = _exact_counter(dataset, vantage_id, characteristic)
                batch_counts[vantage_id] = dict(counter)
            if len(batch_counts) < 2:
                continue
            batch = chi_square_test(union_table(batch_counts, 3)[0])
            streamed = analyzer.chi_square(characteristic, 3)
            assert streamed.valid == batch.valid
            if batch.valid:
                assert abs(streamed.phi - batch.phi) <= 1e-9
                assert abs(streamed.p_value - batch.p_value) <= 1e-9
                assert streamed.sample_size == batch.sample_size
                compared += 1
        assert compared == len(CHARACTERISTICS)

    def test_leak_alarm_matches_batch_leak_report(self, streamed_sim):
        """Full-window streaming alarms equal leak_report's all-traffic
        rows on every (service, group) the stream tracks."""
        analyzer, _bus, _result, dataset = streamed_sim
        assert analyzer.leak is not None
        batch_rows = {
            (row.service, row.group): row
            for row in leak_report(dataset)
            if row.traffic == "all"
        }
        alarms = analyzer.leak.evaluate(trailing_hours=None)
        assert len(alarms) == 9  # 3 services x 3 groups at full deployment
        for alarm in alarms:
            batch = batch_rows[(alarm.service, alarm.group)]
            assert abs(alarm.fold - batch.fold) <= 1e-9
            assert alarm.stochastically_greater == batch.stochastically_greater
            assert alarm.distribution_differs == batch.distribution_differs
            assert alarm.leaked_spikes == batch.leaked_spikes
            assert alarm.control_spikes == batch.control_spikes

    def test_distinct_sources_tracked_per_vantage(self, streamed_sim):
        analyzer, _bus, result, _dataset = streamed_sim
        for vantage_id, table in result.tables().items():
            if len(table) < 50:
                continue
            true_distinct = len(np.unique(table.src_ip))
            estimate = analyzer.distinct_sources[vantage_id].estimate()
            assert abs(estimate - true_distinct) <= max(5, 0.1 * true_distinct)

    def test_state_is_bounded(self, streamed_sim):
        """The online state is O(sketch_k * vantages), independent of the
        number of events consumed — a fixed cap, not a fraction of n."""
        analyzer, _bus, _result, _dataset = streamed_sim
        state = analyzer.state_bytes()
        assert 0 < state < 32 * 1024 * 1024

    def test_snapshot_renders(self, streamed_sim):
        analyzer, bus, _result, _dataset = streamed_sim
        snapshot = analyzer.snapshot(bus_stats=bus.stats)
        text = snapshot.render()
        assert "stream snapshot" in text
        assert "per-vantage rates" in text
        assert "§3.3 cross-vantage comparisons" in text
        assert "leak alarms" in text
        assert "0 dropped" in text
