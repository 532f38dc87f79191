"""Columnar event storage: the struct-of-arrays backbone of a capture.

The paper's apparatus recorded ~24M sessions; materializing one
:class:`~repro.sim.events.CapturedEvent` dataclass per session inside
Python loops is the single hottest path of the simulator.  An
:class:`EventTable` stores one vantage point's events as parallel numpy
columns instead (timestamps, addresses, ports, handshake flags) plus
object columns for the variable-width fields (payload bytes, credential
sequences, shell commands).

Design points:

* **Chunked appends** — the capture pipeline appends whole batches (one
  per campaign × vantage run); a batch append just parks column
  references in a chunk list, so it is O(1) regardless of batch size.
  Columns are consolidated into single contiguous arrays lazily, on
  first access.
* **Lazy row materialization** — analyses that still iterate rows call
  :meth:`materialize` (or the ``events`` property of
  :class:`~repro.honeypots.base.VantageCapture`), which builds the
  ``CapturedEvent`` list once and caches it.  Group-by/count analyses
  use the column accessors directly and never pay for row objects.
* **One-row reference** — :meth:`append_event` appends a single
  :class:`~repro.sim.events.CapturedEvent`; tests use it as the row-wise
  reference for the batch paths.
* **Per-column consolidation** — columns consolidate independently, so
  an analysis that reads only ``src_ip`` never pays for decoding the
  payload/credential columns.  A chunk's column source may be any
  mapping (``chunk[name]``), which is how memory-mapped shard banks
  (:mod:`repro.io.lazy`) plug lazily-loaded columns into the same
  machinery.
* **Group consolidation** — the tables one capture run fills share
  column sets run by run (a campaign batch is cut into per-vantage
  ranges of a few events each).  A :class:`ConsolidationGroup` builds a
  column for all of its tables at once: one :func:`concat_runs` over the
  distinct column sets, then one index gather, instead of every table
  walking its own runs.  Tables outside a group keep the per-table path.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind

__all__ = [
    "COLUMNS",
    "ConsolidationGroup",
    "EventTable",
    "NUMERIC_COLUMNS",
    "OBJECT_COLUMNS",
    "TRANSPORT_CODES",
    "TRANSPORT_OF_CODE",
    "concat_runs",
    "event_columns",
    "gather_plan",
]

#: Compact integer encoding of :class:`~repro.net.packets.Transport`.
TRANSPORT_CODES: dict[Transport, int] = {Transport.TCP: 0, Transport.UDP: 1}
TRANSPORT_OF_CODE: tuple[Transport, ...] = (Transport.TCP, Transport.UDP)

#: Column names in schema order (numeric columns first, object columns last).
NUMERIC_COLUMNS = ("timestamps", "src_ip", "src_asn", "dst_ip", "dst_port",
                   "transport_code", "handshake")
OBJECT_COLUMNS = ("payload", "credentials", "commands")
COLUMNS = NUMERIC_COLUMNS + OBJECT_COLUMNS
_DTYPES = {
    "timestamps": np.float64,
    "src_ip": np.int64,
    "src_asn": np.int64,
    "dst_ip": np.int64,
    "dst_port": np.int64,
    "transport_code": np.int8,
    "handshake": np.bool_,
}

_Scalar = Union[int, float, bool, bytes, tuple]


def _object_column(length: int, values) -> np.ndarray:
    """Build a length-``length`` object column from a sequence or scalar."""
    column = np.empty(length, dtype=object)
    if length == 0:
        return column
    if isinstance(values, np.ndarray) and values.dtype == object:
        column[:] = values
    elif isinstance(values, (bytes, tuple)):
        column[:] = [values] * length
    else:
        column[:] = list(values)
    return column


def event_columns(event: CapturedEvent) -> dict:
    """One captured session as a one-row column set: a scalar per column."""
    return {
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


def concat_runs(runs: Iterable[tuple[dict, int, int]], name: str) -> np.ndarray:
    """One column over ``(columns, start, stop)`` runs, in order.

    Each run contributes rows ``[start, stop)`` of ``columns[name]``: an
    array range, or a scalar broadcast over the run.  A single array run
    at the target dtype comes back as a view.
    """
    dtype = _DTYPES.get(name, object)
    parts = []
    if name in OBJECT_COLUMNS:
        for columns, start, stop in runs:
            value = columns[name]
            if isinstance(value, np.ndarray) and value.dtype == object:
                parts.append(value[start:stop])
            else:
                parts.append(_object_column(stop - start, value))
    else:
        # Scalar broadcast runs are the common case for per-batch
        # constants (dst_port, src_asn): coalesce consecutive scalar
        # chunks into one np.repeat instead of one np.full each.
        run_values: list = []
        run_counts: list = []

        def _flush_runs() -> None:
            if run_counts:
                parts.append(
                    np.repeat(
                        np.array(run_values, dtype=dtype),
                        run_counts,
                    )
                )
                run_values.clear()
                run_counts.clear()

        for columns, start, stop in runs:
            value = columns[name]
            if isinstance(value, np.ndarray):
                _flush_runs()
                parts.append(value[start:stop].astype(dtype, copy=False))
            else:
                run_values.append(value)
                run_counts.append(stop - start)
        _flush_runs()
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def gather_plan(
    column_sets: Sequence,
    starts: Sequence[int],
    stops: Sequence[int],
    order: Optional[np.ndarray] = None,
) -> tuple[list, np.ndarray]:
    """How to build one column over runs ``(column_sets[k], starts[k],
    stops[k])`` with one :func:`concat_runs` and one gather, the runs
    taken in ``order`` (a permutation of the run numbers; default: as
    given).

    Returns ``(sources, index)``: the distinct column sets (by identity)
    as ``(columns, lo, hi)`` spans — each the ``[min start, max stop)``
    range its runs use, in first-use order — and the row index into
    their concatenation, so ``concat_runs(sources, name)[index]`` equals
    ``concat_runs(runs, name)`` with the runs in that order.  Runs of one
    set may interleave with other sets' runs and may overlap each other.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    ids = np.fromiter(map(id, column_sets), dtype=np.uint64, count=len(starts))
    _ids, first, set_of_run = np.unique(ids, return_index=True, return_inverse=True)
    lo = np.full(len(first), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(lo, set_of_run, starts)
    hi = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(hi, set_of_run, stops)
    by_first_use = np.argsort(first, kind="stable")
    sizes = (hi - lo)[by_first_use]
    base = np.empty(len(first), dtype=np.int64)
    base[by_first_use] = np.cumsum(sizes) - sizes - lo[by_first_use]
    sources = [
        (column_sets[run], start, stop)
        for run, start, stop in zip(
            first[by_first_use].tolist(), lo[by_first_use].tolist(), hi[by_first_use].tolist()
        )
    ]
    # Row r of run k gathers source row base[set of k] + starts[k] + r.
    firsts = base[set_of_run] + starts
    lengths = stops - starts
    if order is not None:
        firsts, lengths = firsts[order], lengths[order]
    ends = np.cumsum(lengths)
    index = np.repeat(firsts - (ends - lengths), lengths) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64
    )
    return sources, index


class ConsolidationGroup:
    """Tables that append and consolidate together: the capture tables of
    one run.

    Members' runs live in the group's *run log*, one block per append
    call: arrays of member ordinals, column sets and ``[start, stop)``
    bounds.  A simulated campaign batch is cut into per-vantage runs of
    a few events each; :meth:`append_runs` logs all of them as one block,
    so appending costs no Python per run (single appends through
    :meth:`EventTable.append_view` / :meth:`EventTable.append_event` log
    one-run blocks).  A member's ``_chunks`` are read back from the log.

    The first read of a column on any member builds that column for
    every member lacking it: one :func:`concat_runs` over the distinct
    column sets the log references, then one gather that cuts each
    member's rows out of it.  Values and dtypes equal each table's own
    ``concat_runs(table._chunks, name)``; the arrays are copies, never
    views of the run's column sets.

    The gather plan (row indexes over the distinct column sets) depends
    only on the log, so it is built once, vectorized, and shared by
    every column until a member appends again.  Members are held weakly
    (each table holds its group), so dropping a run's tables frees them
    without waiting for the cycle collector.
    """

    def __init__(self, tables: Iterable["EventTable"]) -> None:
        self._members: list[weakref.ref] = []
        # One [members, column sets, starts, stops] block per append
        # call: int64/object arrays for bulk calls, growing lists for a
        # run of single appends.
        self._blocks: list[list] = []
        self._runs: Optional[list[list]] = None
        self._plan: Optional[tuple[list, np.ndarray, np.ndarray]] = None
        #: Whether any member holds consolidated columns (or rows) that
        #: an append must invalidate.
        self._cached = False
        self._hooked = 0
        existing = []
        for ordinal, table in enumerate(tables):
            existing.append((ordinal, table._chunks))
            table._group = self
            table._ordinal = ordinal
            table._own_chunks = []
            table._own_length = 0
            table._invalidate()
            self._hooked += table._hook is not None
            self._members.append(weakref.ref(table))
        self._lengths = np.zeros(len(self._members), dtype=np.int64)
        for ordinal, chunks in existing:
            for columns, start, stop in chunks:
                self.log_run(ordinal, columns, start, stop)

    def _appended(self) -> None:
        self._runs = None
        self._plan = None
        if self._cached:
            self._cached = False
            for member in self._members:
                table = member()
                if table is not None:
                    table._columns = None
                    table._rows = None

    def log_run(self, ordinal: int, columns: dict, start: int, stop: int) -> None:
        """Log one run for member ``ordinal`` (no hook; the table fires it)."""
        if not self._blocks or not isinstance(self._blocks[-1][0], list):
            self._blocks.append([[], [], [], []])
        block = self._blocks[-1]
        block[0].append(ordinal)
        block[1].append(columns)
        block[2].append(start)
        block[3].append(stop)
        self._lengths[ordinal] += stop - start
        self._appended()

    def append_runs(
        self,
        members: np.ndarray,
        column_sets: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> None:
        """Append run *k* — rows ``[starts[k], stops[k])`` of
        ``column_sets[k]`` — to member ``members[k]`` (an ordinal), for
        every *k* in order, as one log block.

        The bulk form of :meth:`EventTable.append_view`, which a capture
        run would otherwise call once per (campaign batch, vantage) run:
        every member ends up with the same runs in the same order.  When
        members carry append hooks, the runs go through ``append_view``
        one by one, so each hook fires once per run, in run order.
        """
        members = np.asarray(members, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if self._hooked:
            # A tapped run observes every run as it lands: append each
            # one through its table, which fires the hook.
            for ordinal, columns, start, stop in zip(
                members.tolist(), column_sets.tolist(), starts.tolist(), stops.tolist()
            ):
                table = self._members[ordinal]()
                if table is not None:
                    table.append_view(columns, start, stop)
            return
        nonempty = stops > starts
        if not nonempty.all():
            members, column_sets = members[nonempty], column_sets[nonempty]
            starts, stops = starts[nonempty], stops[nonempty]
        if not len(members):
            return
        self._blocks.append([members, column_sets, starts, stops])
        np.add.at(self._lengths, members, stops - starts)
        self._appended()

    def _log(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The whole run log as four flat arrays, in append order."""
        if len(self._blocks) > 1 or (self._blocks and isinstance(self._blocks[0][0], list)):
            members, sets, starts, stops = [], [], [], []
            for block in self._blocks:
                if isinstance(block[0], list):
                    column_sets = np.empty(len(block[1]), dtype=object)
                    column_sets[:] = block[1]
                    block = [block[0], column_sets, block[2], block[3]]
                members.append(np.asarray(block[0], dtype=np.int64))
                sets.append(block[1])
                starts.append(np.asarray(block[2], dtype=np.int64))
                stops.append(np.asarray(block[3], dtype=np.int64))
            self._blocks = [[np.concatenate(members), np.concatenate(sets),
                             np.concatenate(starts), np.concatenate(stops)]]
        if not self._blocks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.empty(0, dtype=object), empty, empty
        return tuple(self._blocks[0])

    def runs_of(self, ordinal: int) -> list[tuple[dict, int, int]]:
        """Member ``ordinal``'s ``(columns, start, stop)`` runs, in order
        (built for every member at once and kept until the next append;
        callers must not modify the list)."""
        if self._runs is None:
            runs: list[list] = [[] for _ in self._members]
            members, sets, starts, stops = self._log()
            for member, columns, start, stop in zip(
                members.tolist(), sets.tolist(), starts.tolist(), stops.tolist()
            ):
                runs[member].append((columns, start, stop))
            self._runs = runs
        return self._runs[ordinal]

    def _build_plan(self) -> tuple[list, np.ndarray, np.ndarray]:
        """``(sources, index, bounds)``: :func:`gather_plan` over the log's
        runs taken member-major (append order within a member), plus
        each member's row bounds in the gather."""
        members, sets, starts, stops = self._log()
        sources, index = gather_plan(
            sets.tolist(), starts, stops, order=np.argsort(members, kind="stable")
        )
        bounds = np.zeros(len(self._members) + 1, dtype=np.int64)
        np.cumsum(self._lengths, out=bounds[1:])
        return sources, index, bounds

    def consolidate(self, name: str) -> None:
        """Build column ``name`` for every member that lacks it."""
        if self._plan is None:
            self._plan = self._build_plan()
        sources, index, bounds = self._plan
        gathered = concat_runs(sources, name)[index]
        self._cached = True
        for member, lo, hi in zip(self._members, bounds[:-1].tolist(), bounds[1:].tolist()):
            table = member()
            if table is None:
                continue
            columns = table._columns
            if columns is None:
                columns = table._columns = {}
            if name not in columns:
                columns[name] = gathered[lo:hi]


class EventTable:
    """Struct-of-arrays storage for one vantage point's captured events.

    All events in a table share the vantage-identity fields
    (``vantage_id``, ``network``, ``network_kind``, ``region``); per-event
    data lives in parallel columns.
    """

    def __init__(
        self,
        vantage_id: str,
        network: str,
        network_kind: NetworkKind,
        region: str,
    ) -> None:
        self.vantage_id = vantage_id
        self.network = network
        self.network_kind = network_kind
        self.region = region
        # Each chunk is (columns, start, stop): a dict of column-name ->
        # (array | scalar) plus the half-open row range of it this table
        # owns.  Appending therefore never copies — many tables can share
        # one column set, each holding a different range — and scalars
        # broadcast at consolidation time.  A group member's chunks live
        # in its group's run log instead (see ``_chunks``).
        self._own_chunks: list[tuple[dict, int, int]] = []
        self._own_length = 0
        self._columns: Optional[dict[str, np.ndarray]] = None
        self._rows: Optional[list[CapturedEvent]] = None
        self._hook: Optional[Callable[["EventTable", dict, int, int], None]] = None
        self._group: Optional[ConsolidationGroup] = None
        self._ordinal = -1

    @property
    def _chunks(self) -> list[tuple[dict, int, int]]:
        """The table's ``(columns, start, stop)`` runs in append order."""
        if self._group is not None:
            return self._group.runs_of(self._ordinal)
        return self._own_chunks

    def runs(self) -> list[tuple[dict, int, int]]:
        """The ``(columns, start, stop)`` runs the rows come from, in
        order: ``columns[name]`` is an array whose ``[start, stop)``
        range belongs to this table, or a scalar broadcast over the run.
        Read-only."""
        return self._chunks

    @property
    def _length(self) -> int:
        if self._group is not None:
            return int(self._group._lengths[self._ordinal])
        return self._own_length

    def set_append_hook(
        self, hook: Optional[Callable[["EventTable", dict, int, int], None]]
    ) -> None:
        """Observe every append as ``hook(table, columns, start, stop)``.

        The streaming tap: fires once per append call — chunked
        (:meth:`append_view` / :meth:`append_batch`) or one-row
        (:meth:`append_event`) — after the rows are owned by the table.
        At most one hook; ``None`` detaches.
        """
        if self._group is not None:
            self._group._hooked += (hook is not None) - (self._hook is not None)
        self._hook = hook

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def for_vantage(cls, vantage) -> "EventTable":
        return cls(vantage.vantage_id, vantage.network, vantage.kind, vantage.region_code)

    @classmethod
    def from_events(cls, events: Iterable[CapturedEvent]) -> "EventTable":
        """Build a table from row records (all of one vantage).

        Each column is built in one pass over the rows, and the table
        holds them as one run: the columns, dtypes and (shared)
        ``bytes``/``tuple`` objects per-row :meth:`append_event` gives.
        """
        events = list(events)
        if not events:
            raise ValueError("cannot infer vantage identity from zero events")
        first = events[0]
        table = cls(first.vantage_id, first.network, first.network_kind, first.region)
        # One tuple per row in schema order, transposed into columns.
        rows = [
            (event.timestamp, event.src_ip, event.src_asn, event.dst_ip, event.dst_port,
             TRANSPORT_CODES[event.transport], bool(event.handshake),
             event.payload, event.credentials, event.commands)
            for event in events
        ]
        columns = {
            name: np.fromiter(values, dtype=_DTYPES.get(name, object), count=len(rows))
            for name, values in zip(COLUMNS, zip(*rows))
        }
        table.append_view(columns, 0, len(rows))
        return table

    @classmethod
    def concat(cls, tables: Sequence["EventTable"]) -> "EventTable":
        """Merge per-shard tables of one vantage, preserving input order.

        The orchestrator's merge layer (each vantage's shard tables, in
        :func:`~repro.io.lazy.merge_shard_tables`): shard k's rows land
        before shard k+1's, so concatenating contiguous-population shards
        reproduces the single-process row order exactly.  The merge is
        zero-copy — chunk references are shared with the inputs, so the
        inputs must not be appended to afterwards (shard loads never
        are).

        Edge cases are legal rather than the caller's problem: an empty
        parts list yields a valid zero-row table with anonymous
        identity, and zero-row parts contribute nothing (they are
        skipped before the identity check, since a vantage absent from
        a shard spills an identity-less placeholder).  Tables *with*
        rows must agree on the vantage identity fields; the merge
        raises ``ValueError`` otherwise (shards of different vantages
        cannot be one capture).
        """
        tables = list(tables)
        populated = [table for table in tables if table._length]
        anchor = populated[0] if populated else (tables[0] if tables else None)
        if anchor is None:
            # Zero parts: a valid empty capture with anonymous identity.
            return cls("", "", NetworkKind.CLOUD, "")
        merged = cls(anchor.vantage_id, anchor.network,
                     anchor.network_kind, anchor.region)
        reference = (anchor.vantage_id, anchor.network,
                     anchor.network_kind, anchor.region)
        for table in populated:
            identity = (table.vantage_id, table.network, table.network_kind, table.region)
            if identity != reference:
                raise ValueError(
                    f"vantage identity mismatch in concat: {identity!r} != "
                    f"{reference!r}"
                )
            merged._own_chunks.extend(table._chunks)
            merged._own_length += table._length
        return merged

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        self._columns = None
        self._rows = None

    def _own_append(self, columns: dict, start: int, stop: int) -> None:
        """Record one run, in the group's log for a member."""
        if self._group is not None:
            self._group.log_run(self._ordinal, columns, start, stop)
        else:
            self._own_chunks.append((columns, start, stop))
            self._own_length += stop - start
            self._invalidate()

    def append_event(self, event: CapturedEvent) -> None:
        """Append one row record as a one-row run (the row-wise reference
        the batch appends are tested against)."""
        columns = event_columns(event)
        self._own_append(columns, 0, 1)
        if self._hook is not None:
            self._hook(self, columns, 0, 1)

    def append_batch(
        self,
        timestamps: np.ndarray,
        src_ips: np.ndarray,
        src_asns: np.ndarray,
        dst_ips: Union[np.ndarray, int],
        dst_port: int,
        transport: Transport,
        handshake: Union[np.ndarray, bool],
        payloads: Union[np.ndarray, bytes],
        credentials: Union[np.ndarray, tuple] = (),
        commands: Union[np.ndarray, tuple] = (),
    ) -> int:
        """Append a column batch; scalars broadcast over the batch length.

        This is O(1): column references are parked in a chunk and only
        concatenated when a column accessor is first used.
        """
        length = len(timestamps)
        if length == 0:
            return 0
        columns = {
            "timestamps": timestamps,
            "src_ip": src_ips,
            "src_asn": src_asns,
            "dst_ip": dst_ips,
            "dst_port": int(dst_port),
            "transport_code": TRANSPORT_CODES[transport],
            "handshake": handshake,
            "payload": payloads,
            "credentials": credentials,
            "commands": commands,
        }
        return self.append_view(columns, 0, length)

    def append_view(self, columns: dict, start: int, stop: int) -> int:
        """Append rows ``[start, stop)`` of a shared column set.

        The hottest capture path: many vantages share one column dict
        (a whole campaign batch run through one capture policy) and each
        appends only its contiguous run.  Nothing is sliced or copied
        here — the range is resolved lazily at consolidation.
        """
        if stop <= start:
            return 0
        self._own_append(columns, start, stop)
        if self._hook is not None:
            self._hook(self, columns, start, stop)
        return stop - start

    # ------------------------------------------------------------------
    # consolidation + column accessors
    # ------------------------------------------------------------------

    def _consolidate_column(self, name: str) -> np.ndarray:
        """Consolidate one column, independently of the others.

        Per-column laziness matters for memory-mapped shards: reading
        ``src_ip`` must not force the object pools to decode.  A group
        member builds the column for its whole group.  Outside a group,
        a single chunk covering its whole array at the target dtype is
        returned as-is (zero-copy — possibly a read-only memmap view),
        so column accessors must be treated as read-only.
        """
        columns = self._columns
        if columns is None or name not in columns:
            if self._group is not None:
                self._group.consolidate(name)
            else:
                if columns is None:
                    columns = self._columns = {}
                columns[name] = concat_runs(self._chunks, name)
        return self._columns[name]

    def column(self, name: str) -> np.ndarray:
        """One column by its chunk-schema name (``"payload"`` for
        :attr:`payloads`); read-only, like every column accessor."""
        return self._consolidate_column(name)

    def _consolidate(self) -> dict[str, np.ndarray]:
        for name in COLUMNS:
            self._consolidate_column(name)
        return self._columns

    def __len__(self) -> int:
        return self._length

    @property
    def timestamps(self) -> np.ndarray:
        return self._consolidate_column("timestamps")

    @property
    def src_ip(self) -> np.ndarray:
        return self._consolidate_column("src_ip")

    @property
    def src_asn(self) -> np.ndarray:
        return self._consolidate_column("src_asn")

    @property
    def dst_ip(self) -> np.ndarray:
        return self._consolidate_column("dst_ip")

    @property
    def dst_port(self) -> np.ndarray:
        return self._consolidate_column("dst_port")

    @property
    def transport_code(self) -> np.ndarray:
        return self._consolidate_column("transport_code")

    @property
    def handshake(self) -> np.ndarray:
        return self._consolidate_column("handshake")

    @property
    def payloads(self) -> np.ndarray:
        return self._consolidate_column("payload")

    @property
    def credentials(self) -> np.ndarray:
        return self._consolidate_column("credentials")

    @property
    def commands(self) -> np.ndarray:
        return self._consolidate_column("commands")

    # ------------------------------------------------------------------
    # row materialization
    # ------------------------------------------------------------------

    def materialize(self) -> list[CapturedEvent]:
        """Build (and cache) the row-object view of the table."""
        if self._rows is None:
            self._rows = list(self.iter_events())
        return self._rows

    def iter_events(self) -> Iterator[CapturedEvent]:
        """Yield row records without caching them."""
        columns = self._consolidate()
        vantage_id, network = self.vantage_id, self.network
        kind, region = self.network_kind, self.region
        timestamps = columns["timestamps"]
        src_ip, src_asn = columns["src_ip"], columns["src_asn"]
        dst_ip, dst_port = columns["dst_ip"], columns["dst_port"]
        transport_code, handshake = columns["transport_code"], columns["handshake"]
        payload, credentials = columns["payload"], columns["credentials"]
        commands = columns["commands"]
        for index in range(self._length):
            yield CapturedEvent(
                vantage_id=vantage_id,
                network=network,
                network_kind=kind,
                region=region,
                timestamp=float(timestamps[index]),
                src_ip=int(src_ip[index]),
                src_asn=int(src_asn[index]),
                dst_ip=int(dst_ip[index]),
                dst_port=int(dst_port[index]),
                transport=TRANSPORT_OF_CODE[transport_code[index]],
                handshake=bool(handshake[index]),
                payload=payload[index],
                credentials=credentials[index],
                commands=commands[index],
            )
