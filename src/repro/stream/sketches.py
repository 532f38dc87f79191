"""Online statistics with bounded memory: the streaming layer's math.

Three primitives back the `cloudwatching watch` service:

* :class:`SpaceSavingSketch` — the Metwally et al. *Space-Saving*
  heavy-hitter sketch.  It monitors at most ``k`` categories; every
  estimate overestimates the true count by at most the recorded
  per-entry ``error``, which is itself bounded by ``n/k`` (``n`` =
  total stream weight).  Any category whose true count exceeds ``n/k``
  is guaranteed to be monitored, so for ``k`` at least the number of
  distinct categories the sketch is *exact* — which is what makes the
  streaming §3.3 comparison converge to the batch answer.
* :class:`HyperLogLog` — distinct-element counting in ``2^p`` one-byte
  registers (distinct scanning sources per vantage point, the paper's
  "who is scanning" denominator); :class:`HyperLogLogBank` keeps one
  per key in shared register blocks, updated once per frame.
* :class:`StreamingContingency` — one Space-Saving sketch per group
  (vantage point) for one characteristic, plus the on-demand top-k-union
  chi-squared/Cramér's V evaluation of Section 3.3, reusing the exact
  same :func:`~repro.stats.topk.union_table` →
  :func:`~repro.stats.contingency.chi_square_test` machinery the batch
  pipeline runs.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Mapping as MappingABC
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.stats.contingency import ChiSquareResult, chi_square_test
from repro.stats.topk import top_k, union_table

__all__ = ["SpaceSavingSketch", "HyperLogLog", "HyperLogLogBank", "KeyedRows",
           "StreamingContingency", "category_codes"]


def category_codes(values: list) -> tuple[np.ndarray, list]:
    """Per-value codes into the distinct values, numbered in first-seen order."""
    ids = dict.fromkeys(values)
    distinct = list(ids)
    ids.update(zip(distinct, range(len(distinct))))
    return np.fromiter(map(ids.__getitem__, values), dtype=np.int64, count=len(values)), distinct


class SpaceSavingSketch:
    """Space-Saving top-k sketch with per-entry error accounting.

    ``update(category, weight)`` is O(monitored) in the worst case (a
    min-scan on eviction); with the default ``k`` of 64 and chunk-level
    pre-aggregation upstream this is never a hot path.

    Deterministic: eviction ties are broken by category ``repr``, the
    same tie-break :func:`repro.stats.topk.top_k` uses, so streaming
    results do not depend on dict insertion order.
    """

    __slots__ = ("k", "total", "_counts", "_errors")

    def __init__(self, k: int = 64) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        #: Total stream weight ingested (the ``n`` of the n/k bound).
        self.total = 0.0
        self._counts: dict[Hashable, float] = {}
        self._errors: dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def update(self, category: Hashable, weight: float = 1.0) -> None:
        """Ingest ``weight`` occurrences of ``category``."""
        if weight <= 0:
            return
        self.total += weight
        counts = self._counts
        if category in counts:
            counts[category] += weight
            return
        if len(counts) < self.k:
            counts[category] = weight
            self._errors[category] = 0.0
            return
        # Evict the minimum-count entry; the newcomer inherits its count
        # as both its estimate floor and its error bound.
        victim = min(counts.items(), key=lambda item: (item[1], repr(item[0])))[0]
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[category] = floor + weight
        self._errors[category] = floor

    def update_counts(self, counts: Mapping[Hashable, float]) -> None:
        """Ingest a pre-aggregated chunk counter (deterministic order)."""
        for category in sorted(counts, key=repr):
            self.update(category, counts[category])

    def estimate(self, category: Hashable) -> float:
        """Estimated count (0 for unmonitored categories)."""
        return self._counts.get(category, 0.0)

    def error(self, category: Hashable) -> float:
        """Overestimation bound for a monitored category."""
        return self._errors.get(category, 0.0)

    @property
    def error_bound(self) -> float:
        """The provable worst-case overestimate, ``total / k``."""
        return self.total / self.k

    def counts(self) -> dict[Hashable, float]:
        """Estimated counts of every monitored category."""
        return dict(self._counts)

    def top(self, k: int = 3) -> list[Hashable]:
        """The estimated top-k categories (§3.3 tie-break by repr)."""
        return top_k(self._counts, k)

    def state_bytes(self) -> int:
        """Approximate resident size of the monitored state."""
        size = sys.getsizeof(self._counts) + sys.getsizeof(self._errors)
        for category in self._counts:
            size += sys.getsizeof(category) + 2 * 8  # two float slots
        return size


# -- HyperLogLog ------------------------------------------------------------

#: splitmix64 constants (Vigna); a well-mixed 64-bit finalizer.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array."""
    with np.errstate(over="ignore"):
        z = values + _SM64_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM64_M1
        z = (z ^ (z >> np.uint64(27))) * _SM64_M2
        return z ^ (z >> np.uint64(31))


def _hash_object(value) -> int:
    """Stable (process-independent) 64-bit hash of one value."""
    if isinstance(value, bytes):
        data = value
    else:
        data = repr(value).encode("utf-8", errors="replace")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _index_rank(hashed: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Register index (top ``p`` bits) and rank of each 64-bit hash."""
    p64 = np.uint64(p)
    indices = (hashed >> (np.uint64(64) - p64)).astype(np.int64)
    # Rank = 1 + trailing zeros of the 64-p low (non-index) bits.
    low = hashed & np.uint64((1 << (64 - p)) - 1)
    with np.errstate(over="ignore"):
        lsb = low & (np.uint64(0) - low)
    rank = np.where(
        low == 0,
        np.uint8(64 - p + 1),
        # log2 of an isolated set bit is exact in float64.
        (np.log2(np.maximum(lsb, np.uint64(1)).astype(np.float64)) + 1).astype(np.uint8),
    )
    return indices, rank


class HyperLogLog:
    """Distinct-element estimator over ``2^p`` one-byte registers.

    Registers record the rank (1 + trailing-zero count) of the hashed
    value's low bits; the estimate uses the standard bias-corrected
    harmonic mean with linear-counting small-range correction.  Hashing
    is process-independent (splitmix64 for integer arrays, BLAKE2b for
    everything else), so live and replayed streams agree.
    """

    __slots__ = ("p", "m", "_registers")

    def __init__(self, p: int = 12) -> None:
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self._registers = np.zeros(self.m, dtype=np.uint8)

    @classmethod
    def _view(cls, p: int, registers: np.ndarray) -> "HyperLogLog":
        """An estimator over registers owned elsewhere (a bank row)."""
        hll = cls.__new__(cls)
        hll.p, hll.m, hll._registers = p, 1 << p, registers
        return hll

    def add_ints(self, values: np.ndarray) -> None:
        """Vectorized ingest of an integer array (e.g. source IPs)."""
        if len(values) == 0:
            return
        self._ingest(_splitmix64(np.asarray(values).astype(np.uint64)))

    def add(self, value) -> None:
        """Ingest one value of any hashable type: integers hash exactly
        as :meth:`add_ints` hashes them, anything else through BLAKE2b."""
        if isinstance(value, (int, np.integer)):
            hashed = _splitmix64(np.asarray([int(value) & _U64_MASK], dtype=np.uint64))
        else:
            hashed = np.asarray([_hash_object(value)], dtype=np.uint64)
        self._ingest(hashed)

    def _ingest(self, hashed: np.ndarray) -> None:
        indices, rank = _index_rank(hashed, self.p)
        np.maximum.at(self._registers, indices, rank)

    def estimate(self) -> float:
        """Bias-corrected distinct-count estimate."""
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        registers = self._registers.astype(np.float64)
        raw = alpha * m * m / np.sum(np.exp2(-registers))
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * m and zeros:
            return float(m * np.log(m / zeros))  # linear counting
        return float(raw)

    def state_bytes(self) -> int:
        return int(self._registers.nbytes)


class KeyedRows:
    """One row per key, in fixed-size blocks (per-vantage state banks).

    Rows are numbered in order of first use.  :meth:`rows` maps a
    frame's keys to row numbers (adding rows for new keys) and
    :meth:`scatter` applies one ufunc ``.at`` per block the frame
    touches — a single call while the keys fit one block.  Blocks never
    move, so adding keys copies nothing and row views stay valid.
    """

    __slots__ = ("index", "blocks", "width", "dtype")

    #: Rows per block.
    BLOCK = 256

    def __init__(self, width: int, dtype) -> None:
        self.index: dict[Hashable, int] = {}
        self.blocks: list[np.ndarray] = []
        self.width = width
        self.dtype = dtype

    def __len__(self) -> int:
        return len(self.index)

    def rows(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Row number of each key in ``keys``, adding rows for new keys."""
        index = self.index
        rows = np.fromiter((index.setdefault(key, len(index)) for key in keys),
                           dtype=np.int64, count=len(keys))
        while len(self.blocks) * self.BLOCK < len(index):
            self.blocks.append(np.zeros((self.BLOCK, self.width), dtype=self.dtype))
        return rows

    def row(self, key: Hashable):
        """The key's row (a view into its block), or None if unseen."""
        position = self.index.get(key)
        if position is None:
            return None
        block, offset = divmod(position, self.BLOCK)
        return self.blocks[block][offset]

    def column(self, position: int) -> np.ndarray:
        """Entry ``position`` of every row, in row order."""
        if not self.blocks:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate([block[:, position] for block in self.blocks])[: len(self.index)]

    def scatter(self, ufunc: np.ufunc, rows: np.ndarray, columns: np.ndarray,
                values) -> None:
        """``ufunc.at(row_matrix, (rows, columns), values)`` across blocks."""
        if len(self.blocks) == 1:
            ufunc.at(self.blocks[0], (rows, columns), values)
            return
        block, offset = np.divmod(rows, self.BLOCK)
        values = np.broadcast_to(values, rows.shape)
        for number in np.unique(block).tolist():
            mask = block == number
            ufunc.at(self.blocks[number], (offset[mask], columns[mask]), values[mask])


class HyperLogLogBank(MappingABC):
    """Per-key :class:`HyperLogLog` estimators over shared register blocks.

    A read-only mapping from key to estimator; :meth:`add_keyed` updates
    every key of a frame with one ``np.maximum.at`` per block.  Register
    updates are order-independent maxima, so a bank fed frame by frame
    holds the same registers as one estimator per key fed chunk by chunk.
    """

    def __init__(self, p: int = 12) -> None:
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self._rows = KeyedRows(1 << p, np.uint8)

    def __getitem__(self, key: Hashable) -> HyperLogLog:
        registers = self._rows.row(key)
        if registers is None:
            raise KeyError(key)
        return HyperLogLog._view(self.p, registers)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._rows.index)

    def __len__(self) -> int:
        return len(self._rows)

    def add_keyed(self, keys: Sequence[Hashable], codes: np.ndarray, values: np.ndarray) -> None:
        """Ingest integer ``values[i]`` under ``keys[codes[i]]``; every
        key in ``keys`` gets an estimator."""
        rows = self._rows.rows(keys)
        if len(values) == 0:
            return
        indices, rank = _index_rank(_splitmix64(np.asarray(values).astype(np.uint64)), self.p)
        self._rows.scatter(np.maximum, rows[codes], indices, rank)


# -- streaming §3.3 ---------------------------------------------------------


class StreamingContingency:
    """Incrementally maintained §3.3 comparison for one characteristic.

    Holds one :class:`SpaceSavingSketch` per group (vantage point).  The
    chi-squared/Cramér's V evaluation runs *on demand* over the union of
    per-group top-k categories — no rescan of the stream — through the
    identical :func:`~repro.stats.topk.union_table` and
    :func:`~repro.stats.contingency.chi_square_test` code paths the
    batch pipeline uses, so with ``sketch_k`` at least the distinct
    category count the streamed φ is bit-identical to batch φ.
    """

    def __init__(self, sketch_k: int = 64) -> None:
        self.sketch_k = sketch_k
        self._groups: dict[Hashable, SpaceSavingSketch] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def sketch(self, group: Hashable) -> SpaceSavingSketch:
        sketch = self._groups.get(group)
        if sketch is None:
            sketch = self._groups[group] = SpaceSavingSketch(self.sketch_k)
        return sketch

    def groups(self) -> list[Hashable]:
        return sorted(self._groups, key=repr)

    def groups_at_least(self, totals: Mapping[Hashable, float], minimum: float) -> list[Hashable]:
        """The groups whose ``totals`` entry (0 when absent) is at least
        ``minimum``, in :meth:`groups` order; only those are sorted."""
        return sorted((group for group in self._groups if totals.get(group, 0) >= minimum),
                      key=repr)

    def update(self, group: Hashable, category: Hashable, weight: float = 1.0) -> None:
        self.sketch(group).update(category, weight)

    def update_counts(self, group: Hashable, counts: Mapping[Hashable, float]) -> None:
        self.sketch(group).update_counts(counts)

    def group_counts(self) -> dict[Hashable, dict[Hashable, float]]:
        """Per-group estimated counters (the batch pipeline's input shape)."""
        return {group: sketch.counts() for group, sketch in self._groups.items()}

    def top(self, group: Hashable, k: int = 3) -> list[Hashable]:
        sketch = self._groups.get(group)
        return sketch.top(k) if sketch is not None else []

    def union_table(
        self, k: int = 3
    ) -> tuple[np.ndarray, list[Hashable], list[Hashable]]:
        return union_table(self.group_counts(), k)

    def chi_square(self, k: int = 3) -> ChiSquareResult:
        """Re-evaluate the §3.3 top-k-union comparison right now."""
        table, _groups, _categories = self.union_table(k)
        return chi_square_test(table)

    def total(self) -> float:
        return sum(sketch.total for sketch in self._groups.values())

    def state_bytes(self) -> int:
        return sum(sketch.state_bytes() for sketch in self._groups.values())
