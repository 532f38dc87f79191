"""Tests for dataset serialization and report rendering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.io.records import event_to_record, read_events, record_to_event, write_events
from repro.net.packets import Transport
from repro.reporting.tables import ascii_plot, pct_cell, phi_cell, render_table
from repro.sim.events import CapturedEvent, NetworkKind
from repro.stats.contingency import EffectMagnitude


def make_event(**overrides):
    base = dict(
        vantage_id="gn-aws-US-CA-0", network="aws", network_kind=NetworkKind.CLOUD,
        region="US-CA", timestamp=12.5, src_ip=123456, src_asn=4134,
        dst_ip=654321, dst_port=22, transport=Transport.TCP, handshake=True,
        payload=b"SSH-2.0-Go\r\n", credentials=(("root", "123456"),),
    )
    base.update(overrides)
    return CapturedEvent(**base)


events_strategy = st.builds(
    make_event,
    timestamp=st.floats(min_value=0, max_value=168, allow_nan=False),
    src_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    dst_port=st.integers(min_value=0, max_value=65535),
    payload=st.binary(max_size=64),
    handshake=st.booleans(),
    credentials=st.lists(
        st.tuples(st.text(max_size=8), st.text(max_size=8)), max_size=3
    ).map(tuple),
    network_kind=st.sampled_from(list(NetworkKind)),
)


class TestRecordConversion:
    def test_round_trip_basic(self):
        event = make_event()
        assert record_to_event(event_to_record(event)) == event

    def test_empty_payload(self):
        event = make_event(payload=b"", credentials=())
        record = event_to_record(event)
        assert record["payload"] == ""
        assert record_to_event(record) == event

    def test_binary_payload_base64(self):
        event = make_event(payload=bytes(range(256)))
        assert record_to_event(event_to_record(event)).payload == bytes(range(256))

    @given(events_strategy)
    @settings(max_examples=50)
    def test_round_trip_property(self, event):
        restored = record_to_event(event_to_record(event))
        assert restored.payload == event.payload
        assert restored.credentials == event.credentials
        assert restored.timestamp == pytest.approx(event.timestamp, abs=1e-6)


class TestFiles:
    def test_write_read_round_trip(self, tmp_path):
        events = [make_event(src_ip=i) for i in range(20)]
        path = tmp_path / "events.ndjson"
        assert write_events(path, events) == 20
        restored = list(read_events(path))
        assert restored == events

    def test_gzip_round_trip(self, tmp_path):
        events = [make_event(src_ip=i) for i in range(5)]
        path = tmp_path / "events.ndjson.gz"
        write_events(path, events)
        assert list(read_events(path)) == events

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"format": "other/9"}\n')
        with pytest.raises(ValueError):
            list(read_events(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert list(read_events(path)) == []

    def test_write_events_streams_a_generator(self, tmp_path):
        path = tmp_path / "incr.ndjson"
        count = write_events(path, (make_event(src_ip=src) for src in (1, 2)))
        assert count == 2
        assert [event.src_ip for event in read_events(path)] == [1, 2]


class TestRenderTable:
    def test_basic(self):
        text = render_table(["A", "Blong"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "| A   | Blong |" in text
        assert "| 333 | 4     |" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["A"], [["1", "2"]])

    def test_non_string_cells(self):
        text = render_table(["n"], [[42]])
        assert "42" in text


class TestCells:
    def test_phi_cell(self):
        assert phi_cell(0.0) == "-"
        assert phi_cell(0.31) == "0.31"
        assert phi_cell(0.31, EffectMagnitude.LARGE) == "0.31 [large]"

    def test_pct_cell(self):
        assert pct_cell(None) == "x"
        assert pct_cell(12.345) == "12%"
        assert pct_cell(12.345, 1) == "12.3%"


class TestAsciiPlot:
    def test_empty(self):
        assert "(empty series)" in ascii_plot(np.array([]), title="x")

    def test_dimensions(self):
        text = ascii_plot(np.linspace(0, 10, 2000), width=40, height=6)
        plot_lines = [line for line in text.splitlines() if "█" in line or "│" in line]
        assert len(plot_lines) <= 6
        assert max(len(line) for line in plot_lines) <= 40

    def test_contains_extremes(self):
        text = ascii_plot(np.asarray([1.0, 9.0, 3.0]), title="t")
        assert "max=9.0" in text and "min=1.0" in text

    def test_constant_series(self):
        text = ascii_plot(np.full(100, 5.0))
        assert "max=5.0" in text
