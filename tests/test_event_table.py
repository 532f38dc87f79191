"""Property tests for the columnar EventTable.

Two invariants the capture pipeline leans on:

* the table is a lossless view — materializing rows, writing them
  through the NDJSON release format, reading them back, and re-building
  a table reproduces every column exactly;
* the three append paths (scalar rows, column batches, shared-column
  views) consolidate into identical storage, whether a table
  consolidates alone or as a member of a consolidation group.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import read_events, write_events
from repro.io.table import TRANSPORT_CODES, ConsolidationGroup, EventTable, concat_runs
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind

#: Timestamps restricted to microsecond precision: the NDJSON writer
#: rounds to six decimals, so finer-grained floats cannot round-trip.
_timestamps = st.integers(min_value=0, max_value=168 * 10**6).map(lambda t: t / 10**6)
_text = st.text(max_size=12)
_credentials = st.tuples(_text, _text)


_events = st.builds(
    CapturedEvent,
    vantage_id=st.just("hp-1"),
    network=st.just("aws"),
    network_kind=st.just(NetworkKind.CLOUD),
    region=st.just("US-East"),
    timestamp=_timestamps,
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_asn=st.integers(min_value=0, max_value=2**31 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_port=st.integers(min_value=0, max_value=65535),
    transport=st.sampled_from((Transport.TCP, Transport.UDP)),
    handshake=st.booleans(),
    payload=st.binary(max_size=40),
    credentials=st.tuples(_credentials).map(tuple) | st.just(()),
    commands=st.lists(_text, max_size=3).map(tuple),
)


def _object_array(values) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _columns_equal(first: EventTable, second: EventTable) -> None:
    np.testing.assert_array_equal(first.timestamps, second.timestamps)
    np.testing.assert_array_equal(first.src_ip, second.src_ip)
    np.testing.assert_array_equal(first.src_asn, second.src_asn)
    np.testing.assert_array_equal(first.dst_ip, second.dst_ip)
    np.testing.assert_array_equal(first.dst_port, second.dst_port)
    np.testing.assert_array_equal(first.transport_code, second.transport_code)
    np.testing.assert_array_equal(first.handshake, second.handshake)
    assert list(first.payloads) == list(second.payloads)
    assert list(first.credentials) == list(second.credentials)
    assert list(first.commands) == list(second.commands)


@settings(max_examples=25, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=20))
def test_table_roundtrips_through_ndjson(events):
    table = EventTable.from_events(events)
    assert table.materialize() == events

    handle, path = tempfile.mkstemp(suffix=".ndjson")
    os.close(handle)
    try:
        write_events(path, table.materialize())
        recovered = EventTable.from_events(read_events(path))
    finally:
        os.unlink(path)

    _columns_equal(table, recovered)
    assert recovered.materialize() == events


_COLUMNS = ("timestamps", "src_ip", "src_asn", "dst_ip", "dst_port", "transport_code",
            "handshake", "payload", "credentials", "commands")


@settings(max_examples=40, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=20),
       blank=st.lists(st.booleans(), min_size=20, max_size=20))
def test_from_events_equals_per_row_appends(events, blank):
    """One column pass per table equals one ``append_event`` per row:
    same values, dtypes and objects, empty credentials and commands
    (and payloads) included."""
    events = [
        dataclasses.replace(event, payload=b"", credentials=(), commands=())
        if empty else event
        for event, empty in zip(events, blank)
    ]
    table = EventTable.from_events(events)
    reference = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    for event in events:
        reference.append_event(event)
    assert len(table.runs()) == 1 and len(table) == len(reference)
    for name in _COLUMNS:
        ours, theirs = table.column(name), reference.column(name)
        assert ours.dtype == theirs.dtype, name
        if ours.dtype == object:
            assert all(a is b for a, b in zip(ours.tolist(), theirs.tolist())), name
        else:
            np.testing.assert_array_equal(ours, theirs)
    assert table.materialize() == events


#: Events batchable in one append_batch call: uniform port and transport.
_batch_events = st.builds(
    CapturedEvent,
    vantage_id=st.just("hp-1"),
    network=st.just("aws"),
    network_kind=st.just(NetworkKind.CLOUD),
    region=st.just("US-East"),
    timestamp=_timestamps,
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_asn=st.integers(min_value=0, max_value=2**31 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_port=st.just(22),
    transport=st.just(Transport.TCP),
    handshake=st.booleans(),
    payload=st.binary(max_size=40),
    credentials=st.tuples(_credentials).map(tuple) | st.just(()),
    commands=st.lists(_text, max_size=3).map(tuple),
)


@settings(max_examples=25, deadline=None)
@given(
    head=st.lists(_batch_events, min_size=1, max_size=10),
    tail=st.lists(_events, min_size=0, max_size=10),
)
def test_append_paths_consolidate_identically(head, tail):
    events = head + tail
    row_table = EventTable.from_events(events)

    # Mixed table: the head appended as one column batch, the tail as rows.
    mixed = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    mixed.append_batch(
        timestamps=np.array([event.timestamp for event in head]),
        src_ips=np.array([event.src_ip for event in head], dtype=np.int64),
        src_asns=np.array([event.src_asn for event in head], dtype=np.int64),
        dst_ips=np.array([event.dst_ip for event in head], dtype=np.int64),
        dst_port=22,
        transport=Transport.TCP,
        handshake=np.array([event.handshake for event in head]),
        payloads=_object_array([event.payload for event in head]),
        credentials=_object_array([event.credentials for event in head]),
        commands=_object_array([event.commands for event in head]),
    )
    for event in tail:
        mixed.append_event(event)

    _columns_equal(row_table, mixed)
    assert mixed.materialize() == events
    assert len(mixed) == len(events)
    assert mixed.timestamps.dtype == np.float64
    assert mixed.transport_code.dtype == np.int8
    assert mixed.handshake.dtype == np.bool_


def test_append_view_shares_columns_zero_copy():
    shared = {
        "timestamps": np.array([1.0, 2.0, 3.0, 4.0]),
        "src_ip": np.array([10, 11, 12, 13], dtype=np.int64),
        "src_asn": np.array([1, 1, 2, 2], dtype=np.int64),
        "dst_ip": 99,
        "dst_port": 22,
        "transport_code": TRANSPORT_CODES[Transport.TCP],
        "handshake": True,
        "payload": b"SSH-2.0-x",
        "credentials": (("root", "admin"),),
        "commands": (),
    }
    first = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    second = EventTable("hp-2", "aws", NetworkKind.CLOUD, "EU-West")
    assert first.append_view(shared, 0, 2) == 2
    assert second.append_view(shared, 2, 4) == 2
    assert second.append_view(shared, 3, 3) == 0  # empty range is a no-op

    np.testing.assert_array_equal(first.timestamps, [1.0, 2.0])
    np.testing.assert_array_equal(second.timestamps, [3.0, 4.0])
    np.testing.assert_array_equal(second.src_ip, [12, 13])
    # Scalars broadcast over each view's row range.
    np.testing.assert_array_equal(first.dst_ip, [99, 99])
    assert list(second.payloads) == [b"SSH-2.0-x", b"SSH-2.0-x"]
    rows = second.materialize()
    assert [event.vantage_id for event in rows] == ["hp-2", "hp-2"]
    assert rows[0].credentials == (("root", "admin"),)
    assert rows[0].transport is Transport.TCP


#: Column name -> public accessor.
_ACCESSORS = {
    "timestamps": "timestamps", "src_ip": "src_ip", "src_asn": "src_asn",
    "dst_ip": "dst_ip", "dst_port": "dst_port", "transport_code": "transport_code",
    "handshake": "handshake", "payload": "payloads", "credentials": "credentials",
    "commands": "commands",
}


@st.composite
def _column_sets(draw):
    """One shared column dict: each column an array (possibly at a
    narrower dtype than the schema's) or a scalar broadcast."""
    length = draw(st.integers(min_value=1, max_value=8))

    def column(elements, dtypes, scalar_ok=True):
        if scalar_ok and draw(st.booleans()):
            return draw(elements)
        values = draw(st.lists(elements, min_size=length, max_size=length))
        dtype = draw(st.sampled_from(dtypes))
        return _object_array(values) if dtype is object else np.array(values, dtype=dtype)

    columns = {
        "timestamps": column(st.floats(0, 168, allow_nan=False), (np.float64, np.float32)),
        "src_ip": column(st.integers(0, 2**32 - 1), (np.int64, np.uint32)),
        "src_asn": column(st.integers(0, 2**31 - 1), (np.int64,)),
        "dst_ip": column(st.integers(0, 2**32 - 1), (np.int64, np.uint32)),
        "dst_port": column(st.integers(0, 65535), (np.int64, np.int32)),
        "transport_code": column(st.integers(0, 1), (np.int8, np.int64)),
        "handshake": column(st.booleans(), (np.bool_,)),
        "payload": column(st.binary(max_size=6), (object,)),
        "credentials": column(st.tuples(_credentials).map(tuple) | st.just(()), (object,)),
        "commands": column(st.lists(_text, max_size=2).map(tuple), (object,)),
    }
    return length, columns


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_consolidation_equals_per_table_consolidation(data):
    column_sets = data.draw(st.lists(_column_sets(), min_size=1, max_size=4))
    tables = [
        EventTable(f"hp-{index}", "aws", NetworkKind.CLOUD, "US-East")
        for index in range(data.draw(st.integers(min_value=1, max_value=5)))
    ]
    ConsolidationGroup(tables)
    pick_table = st.sampled_from(tables)

    def append(count: int) -> None:
        # Interleaved [start, stop) runs of the shared sets and one-row
        # append_event chunks; tables never drawn stay empty.
        for _ in range(count):
            table = data.draw(pick_table)
            if data.draw(st.booleans()):
                table.append_event(data.draw(_events))
                continue
            length, columns = data.draw(st.sampled_from(column_sets))
            start = data.draw(st.integers(min_value=0, max_value=length))
            table.append_view(columns, start, data.draw(st.integers(start, length)))

    append(data.draw(st.integers(min_value=0, max_value=12)))
    for name in data.draw(st.lists(st.sampled_from(sorted(_ACCESSORS)), max_size=4)):
        getattr(data.draw(pick_table), _ACCESSORS[name])
    append(data.draw(st.integers(min_value=0, max_value=4)))

    for table in tables:
        for name, accessor in _ACCESSORS.items():
            got = getattr(table, accessor)
            want = concat_runs(table._chunks, name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_run_appends_equal_per_run_appends(data):
    """``ConsolidationGroup.append_runs`` leaves every member with the
    runs, rows and tap notifications of one ``append_view`` per run,
    interleaved with single appends and with reads between appends."""
    column_sets = data.draw(st.lists(_column_sets(), min_size=1, max_size=4))
    count = data.draw(st.integers(min_value=1, max_value=4))
    hooked = data.draw(st.booleans())
    set_index = {id(columns): index for index, (_length, columns) in enumerate(column_sets)}

    def build(grouped: bool):
        tables = [
            EventTable(f"hp-{index}", "aws", NetworkKind.CLOUD, "US-East")
            for index in range(count)
        ]
        group = ConsolidationGroup(tables) if grouped else None
        seen: list = []
        if hooked:
            def tap(table, columns, start, stop):
                seen.append((table.vantage_id, set_index.get(id(columns), "row"), start, stop))

            for table in tables:
                table.set_append_hook(tap)
        return tables, group, seen

    bulk, group, bulk_seen = build(grouped=True)
    # The reference: ungrouped tables, one append_view per run.
    reference, _none, reference_seen = build(grouped=False)

    @st.composite
    def runs(draw):
        length, columns = draw(st.sampled_from(column_sets))
        start = draw(st.integers(min_value=0, max_value=length))
        return draw(st.integers(0, count - 1)), columns, start, draw(st.integers(start, length))

    for _step in range(data.draw(st.integers(min_value=1, max_value=6))):
        action = data.draw(st.sampled_from(("bulk", "event", "read")))
        if action == "bulk":
            batch = data.draw(st.lists(runs(), max_size=6))
            column_array = np.empty(len(batch), dtype=object)
            column_array[:] = [columns for _member, columns, _start, _stop in batch]
            group.append_runs(
                np.array([run[0] for run in batch], dtype=np.int64), column_array,
                np.array([run[2] for run in batch], dtype=np.int64),
                np.array([run[3] for run in batch], dtype=np.int64),
            )
            for member, columns, start, stop in batch:
                reference[member].append_view(columns, start, stop)
        elif action == "event":
            member, event = data.draw(st.integers(0, count - 1)), data.draw(_events)
            bulk[member].append_event(event)
            reference[member].append_event(event)
        else:
            member, name = data.draw(st.integers(0, count - 1)), data.draw(st.sampled_from(sorted(_ACCESSORS)))
            getattr(bulk[member], _ACCESSORS[name])

    assert bulk_seen == reference_seen
    for got, want in zip(bulk, reference):
        assert len(got) == len(want)
        assert [(set_index.get(id(c), "row"), a, b) for c, a, b in got._chunks] == [
            (set_index.get(id(c), "row"), a, b) for c, a, b in want._chunks
        ]
        for name, accessor in _ACCESSORS.items():
            expected = concat_runs(want._chunks, name)
            column = getattr(got, accessor)
            assert column.dtype == expected.dtype, name
            assert column.tolist() == expected.tolist(), name


def test_ungrouped_whole_array_run_stays_a_view():
    src_ip = np.arange(5, dtype=np.int64)
    table = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    table.append_view({"src_ip": src_ip}, 0, 5)
    assert np.shares_memory(table.src_ip, src_ip)
