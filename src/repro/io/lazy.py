"""Memory-mapped shard reading: the zero-copy half of the merge layer.

The eager merge from the first orchestrator cut decoded every spilled
column of every shard in the parent before any experiment ran — ~3s of
pure deserialization per full-scale run, growing linearly with workers.
This module replaces it with *lazy banks*: a :class:`ShardBank` opens a
shard directory by reading two small NDJSON lines (format header +
vantage directory) and maps nothing else.  Numeric column banks are
``np.memmap``'d straight out of the npz archive on first access; object
pools decode once per column on first access.  A merged run is then a
set of per-vantage :meth:`~repro.io.table.EventTable.concat` merges
whose runs point into the mapped banks — ``orchestrate`` never
materializes a full merged table unless an experiment asks for one, and
an experiment that reads only ``src_ip`` touches only the ``src_ip``
bytes of each spill.

Why manual mapping: ``np.load(..., mmap_mode="r")`` silently ignores
``mmap_mode`` for ``.npz`` archives (members live inside a zip).  Since
``np.savez`` stores members uncompressed, each member's payload sits at
a computable offset of the archive file; :class:`_NpzMapper` resolves
that offset from the zip central directory plus the member's ``.npy``
header and hands out a read-only ``np.memmap`` view.  Compressed,
Fortran-ordered, or otherwise unmappable members fall back to an eager
per-member load, so correctness never depends on the fast path.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.io.table import OBJECT_COLUMNS, EventTable
from repro.sim.events import NetworkKind

__all__ = ["ShardBank", "merge_shard_tables", "open_shard"]


class _NpzMapper:
    """Per-member memory-mapping of an uncompressed ``.npz`` archive."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        with zipfile.ZipFile(self._path, "r") as archive:
            self._members = {
                info.filename[:-4]: (info.header_offset, info.compress_type)
                for info in archive.infolist()
                if info.filename.endswith(".npy")
            }

    def keys(self) -> list[str]:
        return list(self._members)

    def __contains__(self, key: str) -> bool:
        return key in self._members

    def load(self, key: str) -> np.ndarray:
        header_offset, compress_type = self._members[key]
        if compress_type == zipfile.ZIP_STORED:
            mapped = self._memmap_member(header_offset)
            if mapped is not None:
                return mapped
        with np.load(self._path) as archive:  # eager fallback
            return archive[key]

    def _memmap_member(self, header_offset: int) -> Optional[np.ndarray]:
        """Map one stored member's array payload, or None if unmappable."""
        with open(self._path, "rb") as handle:
            handle.seek(header_offset)
            local = handle.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                return None
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            handle.seek(header_offset + 30 + name_len + extra_len)
            try:
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:
                    return None
            except ValueError:
                return None
            if fortran or dtype.hasobject:
                return None
            offset = handle.tell()
        if int(np.prod(shape)) == 0:
            return np.empty(shape, dtype=dtype)
        return np.memmap(self._path, dtype=dtype, mode="r",
                         shape=shape, offset=offset)


class _BankColumns:
    """Lazy chunk mapping: ``chunk[name]`` resolves through the bank.

    Every vantage table of one shard shares a single instance, so a
    column bank is mapped/decoded at most once per shard no matter how
    many vantages read it.
    """

    __slots__ = ("_bank",)

    def __init__(self, bank: "ShardBank") -> None:
        self._bank = bank

    def __getitem__(self, name: str) -> np.ndarray:
        return self._bank.column(name)


class ShardBank:
    """One spilled shard, opened lazily.

    Construction reads only the NDJSON format header and the vantage
    directory record.  Numeric columns are shard-wide *banks* (one
    contiguous array per column, vantages at recorded offsets) that are
    memory-mapped on first access; object columns decode their shard
    pool on first access and fancy-index it into an object bank.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        from repro.io import shards as _shards

        self._shards = _shards
        self.directory = Path(directory)
        self._mapper: Optional[_NpzMapper] = None
        self._columns: dict[str, np.ndarray] = {}
        self._pools: dict[str, np.ndarray] = {}
        self.vantages = self._read_directory()
        self.rows = int(sum(record["rows"] for record in self.vantages))

    def _read_directory(self) -> list[dict]:
        path = self.directory / self._shards._OBJECTS_FILE
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            if header.get("format") != self._shards.SHARD_FORMAT:
                raise ValueError(
                    f"unsupported shard format: {header.get('format')!r}"
                )
            line = handle.readline()
        record = json.loads(line) if line.strip() else {}
        return list(record.get("vantages", ()))

    # ------------------------------------------------------------------
    # column banks
    # ------------------------------------------------------------------

    def _ensure_mapper(self) -> _NpzMapper:
        if self._mapper is None:
            self._mapper = _NpzMapper(self.directory / self._shards._COLUMNS_FILE)
        return self._mapper

    def column(self, name: str) -> np.ndarray:
        array = self._columns.get(name)
        if array is None:
            if name in OBJECT_COLUMNS:
                index = self._ensure_mapper().load(f"bank|{name}.idx")
                pool = self.pool(name)
                if len(index):
                    array = pool[np.asarray(index)]
                else:
                    array = np.empty(0, dtype=object)
            else:
                array = self._ensure_mapper().load(f"bank|{name}")
            self._columns[name] = array
        return array

    def pool(self, name: str) -> np.ndarray:
        pool = self._pools.get(name)
        if pool is None:
            pool = self._shards._decode_pool(name, self._raw_pool(name))
            self._pools[name] = pool
        return pool

    def _raw_pool(self, name: str) -> list:
        # Pool records are written with a stable key prefix, so only the
        # requested pool's (potentially large) JSON line is parsed.
        prefix = f'{{"pool":"{name}"'
        path = self.directory / self._shards._OBJECTS_FILE
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return json.loads(line)["values"]
        return []

    def telescope_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(key, array)`` for the shard's telescope counters."""
        mapper = self._ensure_mapper()
        for key in mapper.keys():
            if key.startswith("__telescope__|"):
                yield key, mapper.load(key)

    # ------------------------------------------------------------------
    # table views
    # ------------------------------------------------------------------

    def tables(self) -> dict[str, EventTable]:
        """Per-vantage :class:`EventTable` views into the mapped banks."""
        columns = _BankColumns(self)
        tables: dict[str, EventTable] = {}
        offset = 0
        for record in self.vantages:
            rows = int(record["rows"])
            table = EventTable(
                record["vantage_id"],
                record["network"],
                NetworkKind(record["kind"]),
                record["region"],
            )
            table.append_view(columns, offset, offset + rows)
            tables[record["vantage_id"]] = table
            offset += rows
        return tables


def open_shard(directory: Union[str, Path]) -> ShardBank:
    """Open a shard directory lazily (two small reads, no column data)."""
    return ShardBank(directory)


def merge_shard_tables(
    vantages: Iterable, shard_tables: Sequence[Mapping[str, EventTable]]
) -> dict[str, EventTable]:
    """Each vantage's rows across the shards, in shard order, as one
    :meth:`EventTable.concat` of its shard tables (vantage order kept;
    vantages no shard captured are left out).  No column data is read."""
    merged: dict[str, EventTable] = {}
    for vantage in vantages:
        table = EventTable.concat([tables[vantage.vantage_id] for tables in shard_tables
                                   if vantage.vantage_id in tables])
        if len(table):
            merged[vantage.vantage_id] = table
    return merged
