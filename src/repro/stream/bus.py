"""The streaming event bus: chunked publish, bounded buffering, explicit
backpressure and drop accounting.

Producers publish :class:`StreamChunk` objects — zero-copy columnar
slices with the same column schema :class:`~repro.io.table.EventTable`
chunks use — and consumers receive them in publish order.  Two ingest
adapters cover the repository's producers:

* :meth:`StreamBus.table_tap` — a hook for the sim engine's columnar
  emission path (``run_simulation(..., tap=bus.table_tap())``): every
  batch chunk a capture table appends is republished on the bus without
  copying the columns.
* :meth:`StreamBus.event_tap` — a hook for the live asyncio honeypots
  (``LiveHoneypot(on_event=bus.event_tap())``): each captured session
  becomes a single-row chunk.

The buffer is bounded in *events*, not chunks.  Two overflow policies:

* ``"backpressure"`` (default) — a publish that would overflow first
  flushes the queue to the subscribers synchronously; the producer pays
  the processing cost and **nothing is ever lost** (the acceptance
  criterion for default queue sizes).  Forced flushes are counted.
* ``"drop"`` — the chunk is discarded and counted, the shape a
  saturated remote collector degrades in.

A flush hands subscribers :class:`StreamFrame` objects: ordered runs of
the buffered chunks, each consumed in one pass, so per-event work is
paid per event rather than per (often tiny) chunk.  A frame column is
gathered from the chunks' distinct column sets, not sliced chunk by
chunk.  Every frame carries the bus's
:class:`~repro.detection.coder.PayloadCoder`, so each distinct payload
is stripped and classified once per bus, not once per frame; between
flushes the bus swaps in a fresh coder once the current one holds more
than :data:`_CODER_PAYLOAD_CAP` payloads.  A frame ends right
after any chunk at which some subscriber reads state mid-stream (its
``cuts``: an hour sealing for incident rules, a snapshot coming due for
``watch``), and never grows past :data:`MAX_FRAME_EVENTS` events.  Every
subscriber therefore sees exactly the state it would have seen had the
chunks arrived one at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Protocol, Union

import numpy as np

from repro.detection.coder import PayloadCoder
from repro.sim.events import CapturedEvent, NetworkKind
from repro.io.table import TRANSPORT_CODES, concat_runs, gather_plan

__all__ = ["StreamChunk", "StreamFrame", "BusStats", "StreamBus", "MAX_FRAME_EVENTS"]

#: Most events one frame carries (a single larger chunk is a frame of
#: its own).  A live server consumes each frame under its ingest lock,
#: so this bounds how long one delivery holds the lock.
MAX_FRAME_EVENTS = 4096

#: Distinct payloads a bus's coder may hold before a flush replaces it
#: (no consumer keys state by code across frames, so results keep).
_CODER_PAYLOAD_CAP = 65_536

#: Column names every chunk carries (the EventTable chunk schema).
CHUNK_COLUMNS = ("timestamps", "src_ip", "src_asn", "dst_ip", "dst_port",
                 "transport_code", "handshake", "payload", "credentials", "commands")


class StreamChunk:
    """A columnar slice of captured events from one vantage point.

    ``columns`` maps column names to arrays *or* scalars (scalars
    broadcast over the chunk, exactly as in EventTable chunks), and
    ``[start, stop)`` is the row range of those columns this chunk
    covers — so republishing an engine batch is zero-copy.
    """

    __slots__ = ("vantage_id", "network", "network_kind", "region",
                 "columns", "start", "stop")

    def __init__(
        self,
        vantage_id: str,
        network: str,
        network_kind: NetworkKind,
        region: str,
        columns: dict,
        start: int,
        stop: int,
    ) -> None:
        self.vantage_id = vantage_id
        self.network = network
        self.network_kind = network_kind
        self.region = region
        self.columns = columns
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @classmethod
    def from_table_chunk(cls, table, columns: dict, start: int, stop: int) -> "StreamChunk":
        """Wrap one EventTable chunk append (the sim-engine tap)."""
        return cls(table.vantage_id, table.network, table.network_kind,
                   table.region, columns, start, stop)

    @classmethod
    def from_event(cls, event: CapturedEvent) -> "StreamChunk":
        """Wrap one captured session (the live-honeypot tap)."""
        columns = {
            "timestamps": float(event.timestamp),
            "src_ip": int(event.src_ip),
            "src_asn": int(event.src_asn),
            "dst_ip": int(event.dst_ip),
            "dst_port": int(event.dst_port),
            "transport_code": TRANSPORT_CODES[event.transport],
            "handshake": bool(event.handshake),
            "payload": event.payload,
            "credentials": event.credentials,
            "commands": event.commands,
        }
        return cls(event.vantage_id, event.network, event.network_kind,
                   event.region, columns, 0, 1)

    def raw(self, name: str):
        """The column as stored: a scalar, or an *unsliced* array."""
        return self.columns[name]

    def resolved(self, name: str) -> np.ndarray:
        """The column as a length-``len(self)`` array (scalars broadcast)."""
        value = self.columns[name]
        if isinstance(value, np.ndarray):
            return value[self.start:self.stop]
        length = len(self)
        if isinstance(value, (bytes, tuple)):
            out = np.empty(length, dtype=object)
            out[:] = [value] * length
            return out
        return np.full(length, value)


class _ChunkGather:
    """Resolves a frame's columns over its chunk list: per chunk range,
    one :func:`~repro.io.table.gather_plan` shared by every column, then
    one :func:`~repro.io.table.concat_runs` over the range's distinct
    column sets and one gather per column.  Only the latest range's plan
    is kept (sub-frames are consumed one at a time)."""

    __slots__ = ("chunks", "_range", "_plan")

    def __init__(self, chunks: list) -> None:
        self.chunks = chunks
        self._range: Optional[tuple[int, int]] = None
        self._plan: Optional[tuple[list, np.ndarray]] = None

    def __call__(self, name: str, first: int, stop: int) -> np.ndarray:
        if self._range != (first, stop):
            chunks = self.chunks[first:stop]
            self._plan = gather_plan([chunk.columns for chunk in chunks],
                                     [chunk.start for chunk in chunks],
                                     [chunk.stop for chunk in chunks])
            self._range = (first, stop)
        sources, index = self._plan
        return concat_runs(sources, name)[index]


class StreamFrame:
    """An ordered run of chunks, consumed in one pass.

    Subscribers do their per-event work (binning, hashing, counting)
    once over the frame's columns, each a ``len(frame)``-row array
    resolved on first use; ``offsets`` keeps the chunk boundaries, so
    the order-dependent updates (Space-Saving) still apply chunk by
    chunk.  ``sources[i]`` is chunk ``i``'s origin, anything carrying
    ``vantage_id`` and ``region``: the :class:`StreamChunk` itself, or
    the table a replayed cell came from.

    ``resolve(name, first, stop)`` builds one column over chunks
    ``[first, stop)`` of the frame a frame was split from, so a
    sub-frame materializes only its own rows.  ``coder`` is the
    pipeline's :class:`~repro.detection.coder.PayloadCoder` (a fresh one
    when None).
    """

    __slots__ = ("sources", "offsets", "coder", "_resolve", "_first", "_columns",
                 "_chunk_index", "_payload_codes")

    def __init__(self, sources: list, offsets: np.ndarray,
                 resolve: Callable[[str, int, int], np.ndarray], first: int = 0,
                 coder: Optional[PayloadCoder] = None) -> None:
        self.sources = sources
        #: ``len(sources) + 1`` row offsets, from 0 to ``len(self)``.
        self.offsets = offsets
        self.coder = coder if coder is not None else PayloadCoder()
        self._resolve = resolve
        self._first = first
        self._columns: dict[str, np.ndarray] = {}
        self._chunk_index: Optional[np.ndarray] = None
        self._payload_codes: Optional[tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_chunks(cls, chunks: Iterable[StreamChunk],
                    coder: Optional[PayloadCoder] = None) -> "StreamFrame":
        chunks = [chunk for chunk in chunks if len(chunk)]
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum([len(chunk) for chunk in chunks], out=offsets[1:])
        return cls(chunks, offsets, _ChunkGather(chunks), coder=coder)

    @classmethod
    def of(cls, item: Union["StreamFrame", StreamChunk]) -> "StreamFrame":
        """``item`` as a frame: a bare chunk is a one-chunk frame."""
        return item if isinstance(item, StreamFrame) else cls.from_chunks([item])

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @property
    def num_chunks(self) -> int:
        return len(self.sources)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def vantage_ids(self) -> list:
        return [source.vantage_id for source in self.sources]

    def column(self, name: str) -> np.ndarray:
        """One column over every row of the frame (scalars broadcast)."""
        array = self._columns.get(name)
        if array is None:
            array = self._columns[name] = self._resolve(
                name, self._first, self._first + self.num_chunks
            )
        return array

    def payload_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, codes)`` for the frame's non-empty payloads: their
        row positions, and per such row its code in :attr:`coder`.
        Coded once per frame for every subscriber that asks."""
        if self._payload_codes is None:
            column = self.column("payload")
            rows = np.flatnonzero(column.astype(bool))
            self._payload_codes = (rows, self.coder.code(column[rows].tolist()))
        return self._payload_codes

    def chunk_index(self) -> np.ndarray:
        """Per row, the index of the chunk it belongs to."""
        if self._chunk_index is None:
            self._chunk_index = np.repeat(
                np.arange(self.num_chunks, dtype=np.int64), self.lengths
            )
        return self._chunk_index

    def split(self, cuts: Iterable[int] = (),
              max_events: int = MAX_FRAME_EVENTS) -> Iterator["StreamFrame"]:
        """Consecutive sub-frames, each ending after a chunk index in
        ``cuts`` or before it would exceed ``max_events``.  Yielded one
        at a time, so only the frame in hand holds its columns."""
        cut_at = np.unique(np.asarray(list(cuts), dtype=np.int64))
        offsets = self.offsets
        start = 0
        while start < self.num_chunks:
            end = max(start, int(np.searchsorted(
                offsets, offsets[start] + max_events, side="right")) - 2)
            position = int(np.searchsorted(cut_at, start))
            if position < len(cut_at):
                end = min(end, int(cut_at[position]))
            lo, hi = int(offsets[start]), int(offsets[end + 1])
            frame = StreamFrame(self.sources[start:end + 1], offsets[start:end + 2] - lo,
                                self._resolve, self._first + start, self.coder)
            # Columns already resolved here are shared as views.
            frame._columns = {name: array[lo:hi] for name, array in self._columns.items()}
            start = end + 1
            yield frame

    def chunks(self) -> Iterator[StreamChunk]:
        """The frame's chunks, one :class:`StreamChunk` each."""
        columns = None
        for index, source in enumerate(self.sources):
            if isinstance(source, StreamChunk):
                yield source
                continue
            if columns is None:
                columns = {name: self.column(name) for name in CHUNK_COLUMNS}
            yield StreamChunk.from_table_chunk(
                source, columns, int(self.offsets[index]), int(self.offsets[index + 1])
            )


def frame_cuts(consumers: Iterable, frame: StreamFrame) -> list[int]:
    """The union of the consumers' ``cuts(frame)``: chunk indices after
    which one of them reads state mid-stream."""
    cuts: set[int] = set()
    for consumer in consumers:
        cut_points = getattr(consumer, "cuts", None)
        if cut_points is not None:
            cuts.update(int(index) for index in cut_points(frame))
    return sorted(cuts)


def deliver(consumer, frame: StreamFrame) -> None:
    """Hand ``frame`` to ``consumer``: whole when it ``accepts_frames``,
    otherwise chunk by chunk (the plain ``consume(chunk)`` protocol)."""
    if getattr(consumer, "accepts_frames", False):
        consumer.consume(frame)
    else:
        for chunk in frame.chunks():
            consumer.consume(chunk)


class Consumer(Protocol):  # pragma: no cover - typing aid
    """A subscriber: ``consume`` takes a :class:`StreamFrame` when the
    class sets ``accepts_frames = True``, else one chunk per call; an
    optional ``cuts(frame)`` names the chunks after which it reads state."""

    def consume(self, frame: Union[StreamFrame, StreamChunk]) -> None: ...


@dataclass
class BusStats:
    """Explicit accounting of everything the bus did."""

    published_chunks: int = 0
    published_events: int = 0
    delivered_chunks: int = 0
    delivered_events: int = 0
    dropped_chunks: int = 0
    dropped_events: int = 0
    #: Times a publish hit the buffer bound and forced a synchronous
    #: flush (the backpressure policy's producer-pays signal).
    backpressure_flushes: int = 0
    #: Most events ever buffered at once.
    queue_high_water: int = 0

    def as_dict(self) -> dict:
        return {
            "published_chunks": self.published_chunks,
            "published_events": self.published_events,
            "delivered_chunks": self.delivered_chunks,
            "delivered_events": self.delivered_events,
            "dropped_chunks": self.dropped_chunks,
            "dropped_events": self.dropped_events,
            "backpressure_flushes": self.backpressure_flushes,
            "queue_high_water": self.queue_high_water,
        }


class StreamBus:
    """Bounded in-order pub/sub bus for captured-event chunks."""

    POLICIES = ("backpressure", "drop")

    def __init__(
        self,
        max_buffered_events: int = 65536,
        policy: str = "backpressure",
    ) -> None:
        if max_buffered_events < 1:
            raise ValueError("max_buffered_events must be >= 1")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r} (choose from {self.POLICIES})")
        self.max_buffered_events = max_buffered_events
        self.policy = policy
        self.stats = BusStats()
        self._queue: deque[StreamChunk] = deque()
        self._buffered_events = 0
        self._subscribers: list[Consumer] = []
        #: The payload coder every delivered frame carries.
        self.coder = PayloadCoder()

    # -- wiring --------------------------------------------------------

    def subscribe(self, consumer: Consumer) -> None:
        self._subscribers.append(consumer)

    def table_tap(self) -> Callable:
        """An :meth:`EventTable.set_append_hook` callback publishing here."""
        def _tap(table, columns: dict, start: int, stop: int) -> None:
            self.publish(StreamChunk.from_table_chunk(table, columns, start, stop))
        return _tap

    def event_tap(self) -> Callable[[CapturedEvent], None]:
        """A ``LiveHoneypot.on_event`` callback publishing here."""
        def _tap(event: CapturedEvent) -> None:
            self.publish(StreamChunk.from_event(event))
        return _tap

    # -- publish / deliver ---------------------------------------------

    @property
    def buffered_events(self) -> int:
        return self._buffered_events

    def publish(self, chunk: StreamChunk) -> bool:
        """Enqueue one chunk; returns False iff the chunk was dropped."""
        length = len(chunk)
        if length == 0:
            return True
        self.stats.published_chunks += 1
        self.stats.published_events += length
        if self._buffered_events + length > self.max_buffered_events:
            if self.policy == "drop":
                self.stats.dropped_chunks += 1
                self.stats.dropped_events += length
                return False
            self.stats.backpressure_flushes += 1
            self.flush()
        self._queue.append(chunk)
        self._buffered_events += length
        self.stats.queue_high_water = max(
            self.stats.queue_high_water, self._buffered_events
        )
        return True

    def flush(self) -> int:
        """Deliver every buffered chunk to every subscriber, in order."""
        if not self._queue:
            return 0
        if len(self.coder) > _CODER_PAYLOAD_CAP:
            self.coder = PayloadCoder()
        batch = StreamFrame.from_chunks(self._queue, self.coder)
        self._queue.clear()
        self._buffered_events = 0
        stats = self.stats
        for frame in batch.split(frame_cuts(self._subscribers, batch)):
            # Counters advance as chunk-by-chunk delivery would show them
            # to a subscriber reading at the frame's last chunk (a watch
            # snapshot): every earlier chunk delivered, that one not yet.
            last = int(frame.offsets[-1] - frame.offsets[-2])
            stats.delivered_chunks += frame.num_chunks - 1
            stats.delivered_events += len(frame) - last
            for subscriber in self._subscribers:
                deliver(subscriber, frame)
            stats.delivered_chunks += 1
            stats.delivered_events += last
        return len(batch)

    def close(self) -> int:
        """Flush whatever remains (end of stream)."""
        return self.flush()
