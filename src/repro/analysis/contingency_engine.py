"""Columnar contingency engine: one-pass group-by aggregation.

Every pairwise-comparison experiment in the paper (Tables 2, 4, 5, 7,
10 and their 2020/2022 twins) reduces to the same primitive: count a
categorical traffic characteristic (source AS, username, password,
normalized payload) per vantage point within a protocol/port slice,
then run the Section 3.3 top-3 chi-squared test over groups of those
counts.  This module makes that one pass over the
:class:`~repro.io.table.EventTable` columns:

* each characteristic is **integer-coded** (``np.unique`` for numeric
  columns, dictionary interning over the consolidated object columns;
  payloads through the dataset's
  :class:`~repro.detection.coder.PayloadCoder`, so each distinct payload
  is fingerprinted, stripped and matched against the ruleset once, not
  once per row), and the Section 3.2 maliciousness label becomes one
  gather per table over a per-payload alert flag;
* per-(vantage × characteristic) **count tables** are counted with one
  ``np.bincount`` per (slice, characteristic) over the dataset's
  concatenated columns, keyed by vantage position × category code, and
  only their nonzero cells are kept (:class:`CountTable`, row-compressed:
  0.6–7% of the cells at scale 1.0), so one dense count array exists at
  a time and only while its table is built;
* event codes, vantage positions and ports are int32 (source IPs and
  ASes stay int64), and a build concatenates only the columns it reads;
* the build is **one pass** over the dataset's tables in dataset
  order, whatever made them: an orchestrated run's tables are the
  merged week (per vantage one :meth:`~repro.io.table.EventTable.concat`
  of its shard tables, each column concatenated on first read), so
  shard layout never reaches the counts.  Category codes are re-coded
  into sorted value tables, which fixes the tables' column order.

The engine is cached on the :class:`~repro.analysis.dataset
.AnalysisDataset` keyed by a cheap table digest (vantage ids × row
counts), so T2/T3/T5/T7/X2/X4 and the temporal twins all draw from the
same precomputed tables; a query densifies only the rows it asks for.

Every result equals the Counter-based definitions in
:mod:`repro.stats` bit for bit (tests/test_analysis_goldens.py pins
them): top-k selection reproduces ``repro.stats.topk.top_k``'s
``(-count, repr(category))`` ordering via precomputed repr-rank arrays,
contingency tables are built with the same float64 values in the same
row/column order and fed to the same ``chi_square_test``, and medians
run on the same float64 inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.detection.coder import PayloadCoder, intern_value
from repro.stats.contingency import ChiSquareResult, chi_square_test

__all__ = [
    "CHARACTERISTICS",
    "ENGINE_SLICES",
    "POPULAR_PORTS",
    "ContingencyEngine",
    "CountTable",
    "SourceAggregates",
    "build_engine",
    "build_source_aggregates",
    "dataset_digest",
]

#: Characteristics the engine codes and counts (Table 2/5/7 rows).
CHARACTERISTICS: tuple[str, ...] = ("as", "username", "password", "payload")

#: The Table 10 "Any/All" popular-port pool.
POPULAR_PORTS: tuple[int, ...] = (80, 8080, 22, 23, 443, 21, 25, 2222, 2323, 7547)

#: Count-table slices.  The first five mirror ``repro.analysis.dataset
#: .SLICES``; ``port80``/``popular`` are the port-only pools backing the
#: telescope AS comparisons (Table 10 restricts by port, not by
#: fingerprint).
ENGINE_SLICES: tuple[str, ...] = (
    "ssh22", "telnet23", "http80", "http_all", "any_all", "port80", "popular",
)

_POPULAR_ARRAY = np.array(POPULAR_PORTS, dtype=np.int64)


def _unique_ints(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d integer array by one sort and a mask: the
    same sorted distinct values, several times faster than numpy's
    hash-based unique on the large, duplicate-heavy key arrays here."""
    values = np.sort(values)
    if len(values) > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


class _ShardCoder(PayloadCoder):
    """A dataset's coder: its payloads, credentials and source ASes.

    The payload half is the :class:`~repro.detection.coder.PayloadCoder`
    under the dataset's ruleset, so each distinct payload is stripped,
    fingerprinted and classified at most once per dataset, and the §3.2
    label (:meth:`malicious`) is one gather per table.  This class adds
    the credential and AS coding and the per-table coded columns shared
    by the count-table build, the per-source aggregation, Table 3 and
    every consumer of the label.
    """

    def __init__(self, classifier) -> None:
        super().__init__(classifier.rule_engine)
        self.user_codes: dict[str, int] = {}
        self.user_values: list[str] = []
        self.pass_codes: dict[str, int] = {}
        self.pass_values: list[str] = []
        self.as_codes: dict[int, int] = {}
        self.as_values: list[int] = []
        # Per-table coded columns (int32 codes), keyed by table identity
        # (the table is pinned in the value so ids cannot be recycled).
        # The count-table build and the source build walk the same
        # tables; sharing one coder per dataset means the second build
        # recodes nothing.  The payload codes, the login flag, the §3.2
        # label and the credential pairs are memoized apart, so the label
        # never interns pairs.
        self._payload_memo: dict[int, tuple] = {}
        self._login_memo: dict[int, tuple] = {}
        self._label_memo: dict[int, tuple] = {}
        self._pair_memo: dict[int, tuple] = {}

    @staticmethod
    def _memoized(memo: dict, table, build):
        hit = memo.get(id(table))
        if hit is not None and hit[0] is table:
            return hit[1]
        value = build(table)
        memo[id(table)] = (table, value)
        return value

    def payload_column(self, table) -> np.ndarray:
        """Memoized per-event payload codes of one table."""
        return self._memoized(
            self._payload_memo, table, lambda table: self.code(table.payloads.tolist())
        )

    def login_flags(self, table) -> np.ndarray:
        """Memoized per-event attempted-login flags (non-empty credentials)."""
        return self._memoized(
            self._login_memo, table, lambda table: table.credentials.astype(bool)
        )

    def credential_pairs(self, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memoized ``(pair_rows, pair_users, pair_passwords)`` of one
        table (:meth:`_code_credentials`)."""
        return self._memoized(self._pair_memo, table, self._code_credentials)

    def intern(self, tables: Iterable) -> None:
        """Code every table's payloads, so the first derived read after
        it (a caller going on to read the label table by table) matches
        them all in one batch."""
        for table in tables:
            self.payload_column(table)

    # -- column coding --------------------------------------------------

    def _code_credentials(self, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand the credentials column into int32 pair arrays: one
        entry per (event, credential pair), its event row and its codes
        in the user/password tables.  Each distinct pair is interned
        once, in first-occurrence order, which gives usernames and
        passwords the codes a pair-by-pair walk would."""
        rows = np.flatnonzero(self.login_flags(table))
        sequences = table.credentials[rows].tolist()
        pairs = list(chain.from_iterable(sequences))
        distinct = dict.fromkeys(pairs)
        for code, pair in enumerate(distinct):
            distinct[pair] = code
        users = np.array([intern_value(self.user_codes, self.user_values, user)
                          for user, _ in distinct], dtype=np.int32)
        passwords = np.array([intern_value(self.pass_codes, self.pass_values, password)
                              for _, password in distinct], dtype=np.int32)
        codes = np.fromiter(map(distinct.__getitem__, pairs), dtype=np.int32, count=len(pairs))
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        return np.repeat(rows.astype(np.int32), lengths), users[codes], passwords[codes]

    def code_asns(self, asns: np.ndarray) -> np.ndarray:
        """Per-event int32 source-AS codes: one unique over the column,
        then each distinct AS is interned."""
        uniq = _unique_ints(asns)
        remap = np.array(
            [intern_value(self.as_codes, self.as_values, value) for value in uniq.tolist()],
            dtype=np.int32,
        )
        return remap[np.searchsorted(uniq, asns)]

    def malicious(self, table) -> np.ndarray:
        """Memoized Section 3.2 maliciousness of every event of one table.

        Payload codes plus the login flag (and the port, for port-scoped
        rules) are all the label depends on, so one gather per table
        serves every consumer of it.
        """
        return self._memoized(
            self._label_memo,
            table,
            lambda table: self.label(
                self.payload_column(table), table.dst_port, self.login_flags(table)
            ),
        )


def _slice_masks(
    ports: np.ndarray, event_fp: np.ndarray, http_code: int
) -> dict[str, Optional[np.ndarray]]:
    """Boolean event masks per engine slice (``None`` = all events)."""
    http = event_fp == http_code
    port80 = ports == 80
    return {
        "ssh22": ports == 22,
        "telnet23": ports == 23,
        "http80": port80 & http,
        "http_all": http,
        "any_all": None,
        "port80": port80,
        "popular": np.isin(ports, _POPULAR_ARRAY),
    }


def dataset_digest(tables: Mapping[str, Any]) -> tuple:
    """Cheap identity of a table mapping: vantage ids × row counts."""
    return tuple((vantage_id, len(table)) for vantage_id, table in tables.items())


# ----------------------------------------------------------------------
# count tables
# ----------------------------------------------------------------------

def dataset_coder(dataset) -> "_ShardCoder":
    """One shared interning coder per table-backed dataset.

    Cached keyed by the dataset digest so the count-table build, the source
    build, Table 3's malicious leak alarm and the run-dir server's exact counts
    (:class:`~repro.serve.backends.RunDirBackend`) all reuse the same
    payload/credential code tables (and their per-table coded columns)
    instead of re-interning every distinct value per build.  Its codes
    are in first-occurrence order; the builds re-code them into sorted
    value tables (:func:`_sorted_values`).
    """
    digest = dataset_digest(dataset.tables)
    coder = getattr(dataset, "_shard_coder", None)
    if coder is None or getattr(dataset, "_shard_coder_digest", None) != digest:
        coder = _ShardCoder(dataset.classifier)
        dataset._shard_coder = coder
        dataset._shard_coder_digest = digest
    return coder


def _concat(parts: list, dtype) -> np.ndarray:
    """``parts`` concatenated into one ``dtype`` array."""
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts, dtype=dtype, casting="same_kind")


class _Columns:
    """The event columns of a mapping of vantage tables, in mapping order
    (empty tables skipped).  Each column is concatenated on its first
    read, so a build pays only for the columns it reads.  Every payload
    is interned up front, before anything is derived from one."""

    def __init__(self, vantage_tables: Mapping[str, Any], coder: "_ShardCoder") -> None:
        items = [
            (position, table)
            for position, table in enumerate(vantage_tables.values())
            if len(table)
        ]
        self._positions = [position for position, _table in items]
        self._tables = [table for _position, table in items]
        self._coder = coder
        coder.intern(self._tables)

    @cached_property
    def position(self) -> np.ndarray:
        """Mapping position of each event's vantage (int32)."""
        return np.repeat(
            np.array(self._positions, dtype=np.int32),
            [len(table) for table in self._tables],
        )

    @cached_property
    def payload(self) -> np.ndarray:
        """Payload codes (int32)."""
        return _concat([self._coder.payload_column(t) for t in self._tables], np.int32)

    @cached_property
    def port(self) -> np.ndarray:
        return _concat([table.dst_port for table in self._tables], np.int32)

    @cached_property
    def src(self) -> np.ndarray:
        return _concat([table.src_ip for table in self._tables], np.int64)

    @cached_property
    def asn(self) -> np.ndarray:
        return _concat([table.src_asn for table in self._tables], np.int64)

    @cached_property
    def login(self) -> np.ndarray:
        """Attempted-login flags."""
        return _concat([self._coder.login_flags(t) for t in self._tables], bool)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(event, user, password)`` of every credential pair (int32).
        Its first read interns the tables' credentials, so a build reads
        it before it sorts the coder's user and password tables."""
        coded = [self._coder.credential_pairs(table) for table in self._tables]
        offsets = np.cumsum([0] + [len(table) for table in self._tables[:-1]]).tolist()
        return (
            _concat([rows + np.int32(offset)
                     for (rows, _users, _passwords), offset in zip(coded, offsets)], np.int32),
            _concat([users for _rows, users, _passwords in coded], np.int32),
            _concat([passwords for _rows, _users, passwords in coded], np.int32),
        )


def _sorted_values(values: Sequence, none_first: bool = False) -> tuple[list, np.ndarray]:
    """A coder's value table sorted (``None`` first when asked), and the
    int32 remap from each coder code to its sorted code."""
    if none_first:
        ordered = sorted(values, key=lambda v: (v is not None, "" if v is None else v))
    else:
        ordered = sorted(values)
    index = {value: code for code, value in enumerate(ordered)}
    return ordered, np.array([index[value] for value in values], dtype=np.int32)


@dataclass(frozen=True, eq=False)
class CountTable:
    """One (slice × characteristic) count table, row-compressed.

    Row ``r`` (a vantage) keeps only its nonzero cells:
    ``codes[bounds[r]:bounds[r + 1]]`` are their category codes
    (ascending, int32) and ``counts[...]`` their counts, so the table
    holds memory in proportion to its nonzero cells, not to
    vantages × categories (``width``).
    """

    width: int
    bounds: np.ndarray
    codes: np.ndarray
    counts: np.ndarray

    @classmethod
    def count(cls, positions: np.ndarray, codes: np.ndarray,
              n_rows: int, width: int) -> "CountTable":
        """Count (row position, category code) pairs with one
        ``np.bincount`` and keep its nonzero cells.  Each temporary is
        dropped before the next is made, so the dense counts are the
        only large array alive."""
        keys = positions.astype(np.int64)
        keys *= width
        keys += codes
        dense = np.bincount(keys, minlength=n_rows * width)
        del keys
        cells = np.flatnonzero(dense)
        counts = dense[cells]
        del dense
        rows, cell_codes = np.divmod(cells, width)
        return cls(width, np.searchsorted(rows, np.arange(n_rows + 1)),
                   cell_codes.astype(np.int32), counts)

    def dense(self, rows: Sequence[int]) -> np.ndarray:
        """The int64 ``len(rows) × width`` block of the given rows."""
        block = np.zeros((len(rows), self.width), dtype=np.int64)
        for index, row in enumerate(rows):
            lo, hi = self.bounds[row], self.bounds[row + 1]
            block[index, self.codes[lo:hi]] = self.counts[lo:hi]
        return block


class ContingencyEngine:
    """Precomputed per-(vantage × characteristic) count tables.

    Rows are vantage points (dataset order), columns are the
    canonically-sorted category values of one characteristic; one
    row-compressed :class:`CountTable` exists per (slice,
    characteristic), and the query helpers densify only the rows they
    are asked for.  All of them reproduce the Counter definitions in
    :mod:`repro.stats` bit-for-bit.
    """

    def __init__(
        self,
        vantage_ids: Sequence[str],
        values: dict[str, list],
        counts: dict[tuple[str, str], CountTable],
        events: dict[str, np.ndarray],
        malicious: dict[str, np.ndarray],
        cred_events: np.ndarray,
    ) -> None:
        self.vantage_ids = tuple(vantage_ids)
        self.vantage_row = {vid: row for row, vid in enumerate(self.vantage_ids)}
        self.values = values
        self.counts = counts
        self.events = events
        self.malicious = malicious
        self.cred_events = cred_events
        self.digest: Optional[tuple] = None
        # repr-rank per characteristic: rank[i] is the position of value
        # i when the category values are sorted by repr() — the exact
        # tie-break repro.stats.topk.top_k and union ordering use.
        self.repr_rank: dict[str, np.ndarray] = {}
        for characteristic, vals in values.items():
            order = sorted(range(len(vals)), key=lambda i: repr(vals[i]))
            rank = np.empty(len(vals), dtype=np.int64)
            rank[order] = np.arange(len(vals), dtype=np.int64)
            self.repr_rank[characteristic] = rank

    # -- row selection ---------------------------------------------------

    def row(self, vantage_id: str) -> Optional[int]:
        return self.vantage_row.get(vantage_id)

    def active_rows(self, slice_key: str, vantage_ids: Iterable[str]) -> list[int]:
        """Rows of the given vantages that saw traffic in the slice —
        the columnar analogue of "slice the events, drop empties"."""
        slice_events = self.events[slice_key]
        rows = []
        for vantage_id in vantage_ids:
            row = self.vantage_row.get(vantage_id)
            if row is not None and slice_events[row] > 0:
                rows.append(row)
        return rows

    # -- aggregation -----------------------------------------------------

    def row_vector(self, slice_key: str, characteristic: str, row: int) -> np.ndarray:
        """One vantage row's int64 counts over every category."""
        return self.counts[(slice_key, characteristic)].dense([row])[0]

    def sum_vector(self, slice_key: str, characteristic: str, rows: Sequence[int]) -> np.ndarray:
        table = self.counts[(slice_key, characteristic)]
        if not rows:
            return np.zeros(table.width, dtype=np.int64)
        return table.dense(rows).sum(axis=0)

    def median_vector(self, slice_key: str, characteristic: str, rows: Sequence[int]) -> np.ndarray:
        """Section 4.4 per-category median across honeypots (float64,
        same inputs as ``median_counter`` fed with per-honeypot floats)."""
        table = self.counts[(slice_key, characteristic)]
        if not rows:
            return np.zeros(table.width, dtype=np.float64)
        return np.median(table.dense(rows).astype(np.float64), axis=0)

    def fraction(self, slice_key: str, rows: Sequence[int]) -> tuple[int, int]:
        if not rows:
            return (0, 0)
        index = np.asarray(rows, dtype=np.int64)
        return (
            int(self.malicious[slice_key][index].sum()),
            int(self.events[slice_key][index].sum()),
        )

    def counter(self, slice_key: str, characteristic: str, rows: Sequence[int]) -> Counter:
        """A plain-Python Counter view of a summed vector (category
        values are the original Python objects)."""
        vector = self.sum_vector(slice_key, characteristic, rows)
        values = self.values[characteristic]
        nonzero = np.flatnonzero(vector)
        return Counter(
            {values[col]: int(vector[col]) for col in nonzero.tolist()}
        )

    # -- the Section 3.3 comparison --------------------------------------

    def top_k_codes(self, vector: np.ndarray, characteristic: str, k: int = 3) -> np.ndarray:
        """Column codes of the k most common categories, ties broken by
        repr — identical selection to ``repro.stats.topk.top_k``."""
        positive = np.flatnonzero(vector > 0)
        if positive.size == 0:
            return positive
        rank = self.repr_rank[characteristic]
        order = np.lexsort((rank[positive], -vector[positive]))
        return positive[order[:k]]

    def compare_top_k(
        self,
        group_vectors: Mapping[Hashable, np.ndarray],
        characteristic: str,
        k: int = 3,
    ) -> ChiSquareResult:
        """``repro.stats.comparisons.compare_top_k`` on coded vectors:
        same group order (repr-sorted), same column order (union of
        per-group top-k, repr-sorted), same float64 table, same test."""
        groups = sorted(group_vectors, key=repr)
        union: set[int] = set()
        for group in groups:
            union.update(self.top_k_codes(group_vectors[group], characteristic, k).tolist())
        rank = self.repr_rank[characteristic]
        columns = np.array(sorted(union, key=lambda code: rank[code]), dtype=np.int64)
        table = np.zeros((len(groups), len(columns)), dtype=np.float64)
        for row, group in enumerate(groups):
            table[row] = group_vectors[group][columns]
        return chi_square_test(table)


def build_engine(dataset) -> ContingencyEngine:
    """Build the engine for a dataset in one pass over its tables."""
    coder = dataset_coder(dataset)
    vantage_ids = list(dataset.tables)
    n_vantages = len(vantage_ids)
    columns = _Columns(dataset.tables, coder)
    position = columns.position
    payload = columns.payload
    pair_event, pair_user, pair_password = columns.pairs
    as_codes = coder.code_asns(columns.asn)
    event_fp = coder.fp_lookup()[payload]
    stripped = coder.stripped_lookup()[payload]
    mal = coder.label(payload, columns.port, columns.login)
    pair_position = position[pair_event]
    nonempty_payload = stripped >= 0
    http_code = coder.fp_codes.get("http", -1)

    values: dict[str, list] = {}
    values["as"], as_remap = _sorted_values(coder.as_values)
    values["username"], user_remap = _sorted_values(coder.user_values)
    values["password"], pass_remap = _sorted_values(coder.pass_values)
    values["payload"], stripped_remap = _sorted_values(coder.stripped_values)
    as_codes = as_remap[as_codes]
    pair_user = user_remap[pair_user]
    pair_password = pass_remap[pair_password]
    stripped[nonempty_payload] = stripped_remap[stripped[nonempty_payload]]

    def per_vantage(positions: np.ndarray) -> np.ndarray:
        return np.bincount(positions, minlength=n_vantages)

    def table(characteristic: str, positions: np.ndarray, codes: np.ndarray) -> CountTable:
        return CountTable.count(positions, codes, n_vantages, len(values[characteristic]))

    events: dict[str, np.ndarray] = {}
    malicious: dict[str, np.ndarray] = {}
    counts: dict[tuple[str, str], CountTable] = {}
    for slice_key, mask in _slice_masks(columns.port, event_fp, http_code).items():
        if mask is None:
            events[slice_key] = per_vantage(position)
            malicious[slice_key] = per_vantage(position[mal])
            counts[(slice_key, "as")] = table("as", position, as_codes)
            payload_rows = nonempty_payload
            pair_rows = slice(None)
        else:
            events[slice_key] = per_vantage(position[mask])
            malicious[slice_key] = per_vantage(position[mal & mask])
            counts[(slice_key, "as")] = table("as", position[mask], as_codes[mask])
            payload_rows = mask & nonempty_payload
            pair_rows = mask[pair_event]
        counts[(slice_key, "username")] = table(
            "username", pair_position[pair_rows], pair_user[pair_rows]
        )
        counts[(slice_key, "password")] = table(
            "password", pair_position[pair_rows], pair_password[pair_rows]
        )
        counts[(slice_key, "payload")] = table(
            "payload", position[payload_rows], stripped[payload_rows]
        )
    engine = ContingencyEngine(
        vantage_ids=vantage_ids,
        values=values,
        counts=counts,
        events=events,
        malicious=malicious,
        cred_events=per_vantage(position[columns.login]),
    )
    engine.digest = dataset_digest(dataset.tables)
    return engine


# ----------------------------------------------------------------------
# per-source aggregates (tags / campaigns)
# ----------------------------------------------------------------------

def _unique_rows(*columns: np.ndarray) -> np.ndarray:
    """Distinct rows of stacked integer columns, as int64
    (lexicographically sorted).

    When every column is non-negative and the combined bit widths fit an
    int64, the rows are packed into scalar keys straight from the
    columns, so the dedup is one 1-D sort (:func:`_unique_ints`) — far
    faster than the row-wise (void-view) sort of ``np.unique(axis=0)``,
    with the identical lexicographic result.  Oversized or negative
    values fall back to the row-wise path.
    """
    if len(columns[0]) == 0:
        return np.empty((0, len(columns)), dtype=np.int64)
    bits: list[int] = []
    for column in columns:
        if int(column.min()) < 0:
            break
        bits.append(max(1, int(column.max()).bit_length()))
    if len(bits) == len(columns) and sum(bits) <= 63:
        keys = columns[0].astype(np.int64)
        for column, width in zip(columns[1:], bits[1:]):
            keys <<= width
            keys |= column
        keys = _unique_ints(keys)
        out = np.empty((keys.shape[0], len(columns)), dtype=np.int64)
        for index in range(len(columns) - 1, 0, -1):
            width = bits[index]
            out[:, index] = keys & ((1 << width) - 1)
            keys >>= width
        out[:, 0] = keys
        return out
    return np.unique(
        np.stack([np.asarray(column, dtype=np.int64) for column in columns], axis=1), axis=0
    )


class SourceAggregates:
    """Per-source behavioral aggregates over the whole dataset.

    ``sources`` is ascending; every pair/triple array references sources
    by *index* into it (column 0) and values by code into the
    corresponding value table.  ``first_order`` lists source indices in
    global first-occurrence order — the dict-insertion order the
    row-wise tag/campaign implementations produce.
    """

    def __init__(
        self,
        sources: np.ndarray,
        first_order: np.ndarray,
        first_asn: np.ndarray,
        event_count: np.ndarray,
        malicious: np.ndarray,
        port_fp: np.ndarray,
        fp_values: list,
        cred: np.ndarray,
        user_values: list,
        pass_values: list,
        payloads: np.ndarray,
        stripped_values: list,
        families: np.ndarray,
        family_values: list,
        asn_pairs: np.ndarray,
    ) -> None:
        self.sources = sources
        self.first_order = first_order
        self.first_asn = first_asn
        self.event_count = event_count
        self.malicious = malicious
        self.port_fp = port_fp
        self.fp_values = fp_values
        self.cred = cred
        self.user_values = user_values
        self.pass_values = pass_values
        self.payloads = payloads
        self.stripped_values = stripped_values
        self.families = families
        self.family_values = family_values
        self.asn_pairs = asn_pairs
        self.digest: Optional[tuple] = None
        # Distinct (src, port) and (src, fingerprint) projections of the
        # port/fingerprint triples.
        self.port_pairs = _unique_rows(port_fp[:, 0], port_fp[:, 1])
        self.fp_pairs = _unique_rows(port_fp[:, 0], port_fp[:, 2])
        self.pass_pairs = _unique_rows(cred[:, 0], cred[:, 2])

    def __len__(self) -> int:
        return len(self.sources)


def build_source_aggregates(dataset) -> SourceAggregates:
    """Build per-source aggregates for a dataset in one pass over its
    tables.  Every pair/triple array is deduplicated once, after its
    value codes are re-coded into the sorted value tables."""
    coder = dataset_coder(dataset)
    columns = _Columns(dataset.tables, coder)
    src_all = columns.src
    port_all = columns.port
    pcode_all = columns.payload
    pair_event, pair_user, pair_password = columns.pairs
    fp_all = coder.fp_lookup()[pcode_all]
    stripped_all = coder.stripped_lookup()[pcode_all]
    mal_all = coder.label(pcode_all, port_all, columns.login)

    # The columns run in dataset order, so np.unique's first-occurrence
    # index IS each source's first sighting.
    sources, first_index, event_count = np.unique(
        src_all, return_index=True, return_counts=True
    )
    malicious = np.isin(sources, _unique_ints(src_all[mal_all]), assume_unique=True)

    def by_source(*coded: np.ndarray) -> np.ndarray:
        """Distinct rows, the source column as an index into ``sources``."""
        rows = _unique_rows(*coded)
        rows[:, 0] = np.searchsorted(sources, rows[:, 0])
        return rows

    fp_values, fp_remap = _sorted_values(coder.fp_values, none_first=True)
    user_values, user_remap = _sorted_values(coder.user_values)
    pass_values, pass_remap = _sorted_values(coder.pass_values)
    stripped_values, stripped_remap = _sorted_values(coder.stripped_values)
    truthy = stripped_all >= 0

    # Alert families expanded once per distinct (src, payload, port)
    # triple.  Only the families that occur are kept, re-coded in the
    # ruleset's sorted classtype order.
    triples = _unique_rows(src_all[truthy], pcode_all[truthy], port_all[truthy])
    rows, family_codes = coder.alert_families(triples[:, 1], triples[:, 2])
    used = _unique_ints(family_codes)

    aggregates = SourceAggregates(
        sources=sources,
        first_order=np.argsort(first_index),
        first_asn=columns.asn[first_index],
        event_count=event_count,
        malicious=malicious,
        port_fp=by_source(src_all, port_all, fp_remap[fp_all]),
        fp_values=fp_values,
        cred=by_source(
            src_all[pair_event], user_remap[pair_user], pass_remap[pair_password]
        ),
        user_values=user_values,
        pass_values=pass_values,
        payloads=by_source(src_all[truthy], stripped_remap[stripped_all[truthy]]),
        stripped_values=stripped_values,
        families=by_source(triples[rows, 0], np.searchsorted(used, family_codes)),
        family_values=[coder.family_values[code] for code in used.tolist()],
        asn_pairs=by_source(src_all, columns.asn),
    )
    aggregates.digest = dataset_digest(dataset.tables)
    return aggregates
