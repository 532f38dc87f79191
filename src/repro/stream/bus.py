"""The streaming event bus: run-wise publish, bounded buffering, explicit
backpressure and drop accounting.

The bus's unit is a table run.  ``publish(source, columns, start, stop)``
enqueues rows ``[start, stop)`` of a column set in the
:class:`~repro.io.table.EventTable` schema (each column an array, or a
scalar broadcast over the run) captured at ``source``, anything carrying
``vantage_id`` and ``region``.  Those are the arguments
:meth:`~repro.io.table.EventTable.set_append_hook` passes, so each
producer publishes its own runs without copying a column:

* the sim engine's capture tables:
  ``run_simulation(..., tap=bus.publish)``;
* ``watch --run-dir``: ranges of a shard table's run, published with the
  table as their source;
* the live asyncio honeypots: :meth:`StreamBus.event_tap`
  (``LiveHoneypot(on_event=bus.event_tap())``) publishes each captured
  session as the one-row run ``(event, event_columns(event), 0, 1)``.

The buffer is bounded in *events*, not runs.  Two overflow policies:

* ``"backpressure"`` (default) — a publish that would overflow first
  flushes the queue to the subscribers synchronously; the producer pays
  the processing cost and **nothing is ever lost** (the acceptance
  criterion for default queue sizes).  Forced flushes are counted.
* ``"drop"`` — the run is discarded and counted, the shape a saturated
  remote collector degrades in.

A flush hands every subscriber's ``consume`` :class:`StreamFrame`
objects, and only those: ordered runs of the buffered chunks (one chunk
per published run), each consumed in one pass, so per-event work is
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
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.detection.coder import PayloadCoder
from repro.io.table import concat_runs, event_columns, gather_plan
from repro.sim.events import CapturedEvent

__all__ = ["StreamFrame", "BusStats", "StreamBus", "MAX_FRAME_EVENTS"]

#: Most events one frame carries (a single larger chunk is a frame of
#: its own).  A live server consumes each frame under its ingest lock,
#: so this bounds how long one delivery holds the lock.
MAX_FRAME_EVENTS = 4096

#: Distinct payloads a bus's coder may hold before a flush replaces it
#: (no consumer keys state by code across frames, so results keep).
_CODER_PAYLOAD_CAP = 65_536


class _ChunkGather:
    """Resolves a frame's columns over its ``(source, columns, start,
    stop)`` chunks: per chunk range, one
    :func:`~repro.io.table.gather_plan` shared by every column, then one
    :func:`~repro.io.table.concat_runs` over the range's distinct column
    sets and one gather per column.  Only the latest range's plan is kept
    (sub-frames are consumed one at a time)."""

    __slots__ = ("chunks", "_range", "_plan")

    def __init__(self, chunks: list) -> None:
        self.chunks = chunks
        self._range: Optional[tuple[int, int]] = None
        self._plan: Optional[tuple[list, np.ndarray]] = None

    def __call__(self, name: str, first: int, stop: int) -> np.ndarray:
        if self._range != (first, stop):
            chunks = self.chunks[first:stop]
            self._plan = gather_plan([chunk[1] for chunk in chunks],
                                     [chunk[2] for chunk in chunks],
                                     [chunk[3] for chunk in chunks])
            self._range = (first, stop)
        sources, index = self._plan
        return concat_runs(sources, name)[index]


class StreamFrame:
    """An ordered run of chunks, consumed in one pass.

    A chunk is one published run.  Subscribers do their per-event work
    (binning, hashing, counting) once over the frame's columns, each a
    ``len(frame)``-row array resolved on first use; ``offsets`` keeps
    the chunk boundaries, so the order-dependent updates (Space-Saving)
    still apply chunk by chunk.  ``sources[i]`` is chunk ``i``'s origin,
    anything carrying ``vantage_id`` and ``region``: the table or
    captured event it was published with, or the table a replayed cell
    came from.

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
    def from_chunks(cls, chunks: Iterable[tuple],
                    coder: Optional[PayloadCoder] = None) -> "StreamFrame":
        """A frame over ``(source, columns, start, stop)`` chunks, in
        order; empty ones are left out."""
        chunks = [chunk for chunk in chunks if chunk[3] > chunk[2]]
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum([stop - start for _source, _columns, start, stop in chunks],
                  out=offsets[1:])
        return cls([chunk[0] for chunk in chunks], offsets, _ChunkGather(chunks),
                   coder=coder)

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


def frame_cuts(consumers: Iterable, frame: StreamFrame) -> list[int]:
    """The union of the consumers' ``cuts(frame)``: chunk indices after
    which one of them reads state mid-stream."""
    cuts: set[int] = set()
    for consumer in consumers:
        cut_points = getattr(consumer, "cuts", None)
        if cut_points is not None:
            cuts.update(int(index) for index in cut_points(frame))
    return sorted(cuts)


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
    """Bounded in-order pub/sub bus for captured-event runs."""

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
        #: ``(source, columns, start, stop)`` per buffered run.
        self._queue: deque[tuple] = deque()
        self._buffered_events = 0
        self._subscribers: list = []
        #: The payload coder every delivered frame carries.
        self.coder = PayloadCoder()

    # -- wiring --------------------------------------------------------

    def subscribe(self, consumer) -> None:
        """Hand every frame to ``consumer.consume(frame)``, after the
        subscribers before it.

        A consumer that reads state mid-stream also defines
        ``cuts(frame)``: the indices of the chunks of ``frame`` after
        which it reads.  The bus ends a frame right after each, so the
        consumer reads exactly the state it would have read had the
        chunks arrived one at a time.
        """
        self._subscribers.append(consumer)

    def event_tap(self) -> Callable[[CapturedEvent], None]:
        """A ``LiveHoneypot.on_event`` callback publishing each session
        as a one-row run."""
        def _tap(event: CapturedEvent) -> None:
            self.publish(event, event_columns(event), 0, 1)
        return _tap

    # -- publish / flush -----------------------------------------------

    @property
    def buffered_events(self) -> int:
        return self._buffered_events

    def publish(self, source, columns: dict, start: int, stop: int) -> bool:
        """Enqueue rows ``[start, stop)`` of ``columns``, captured at
        ``source``; returns False iff the run was dropped.  The signature
        is an :meth:`EventTable.set_append_hook` hook's."""
        length = stop - start
        if length <= 0:
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
        self._queue.append((source, columns, start, stop))
        self._buffered_events += length
        self.stats.queue_high_water = max(
            self.stats.queue_high_water, self._buffered_events
        )
        return True

    def flush(self) -> int:
        """Deliver every buffered run to every subscriber, in order."""
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
                subscriber.consume(frame)
            stats.delivered_chunks += 1
            stats.delivered_events += last
        return len(batch)

    def close(self) -> int:
        """Flush whatever remains (end of stream)."""
        return self.flush()
