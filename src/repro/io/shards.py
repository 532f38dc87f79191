"""On-disk shard format for orchestrated simulation runs.

One shard holds everything a worker process captured for its contiguous
slice of the scanner population: per-vantage event columns, the shard's
telescope aggregate, and a manifest describing exactly what was run.

A shard directory contains three files::

    shard-0003/
        columns.npz      # banked columns + pool-index banks + telescope
        objects.ndjson   # vantage directory + shard-global object pools
        manifest.json    # written last; its presence marks completion

Format v2 stores *banked* columns: one contiguous array per column for
the whole shard (``"bank|<column>"``), with each vantage owning a
recorded ``[offset, offset+rows)`` run of every bank.  v1 spilled one
npz member per vantage per column — ~7,400 tiny zip members for a
full-scale shard — and the per-member bookkeeping dominated both the
spill (``np.savez``) and the reload.  Banks cut the member count to a
constant (7 numeric + 3 pool-index + telescope), which also makes every
member big enough to be worth memory-mapping on read
(:mod:`repro.io.lazy`).

* **columns.npz** stores the seven numeric :class:`~repro.io.table.EventTable`
  column banks, an ``int32`` pool-index bank per object column
  (``"bank|<column>.idx"``) pointing into the shard-global pools, the
  per-vantage bank offsets (``"bank|offsets"``), and the telescope
  counters as arrays: per-destination distinct-source counts
  (``"__telescope__|dst_unique|<port>"``), per-source hit pairs
  (``"__telescope__|hits|<port>"``), and IP→AS attribution
  (``"__telescope__|asn"``).
* **objects.ndjson** stores a format header, the vantage directory (one
  record listing every vantage's identity and row count — all a lazy
  open needs), and one *pool* record per object column holding the
  deduplicated values the index banks point into (payload bytes
  base64-encoded, credential pair sequences, command sequences).
  Payloads repeat massively across sessions, so pooling keeps the JSON
  a small fraction of the column data.
* **manifest.json** records the run-configuration digest, the shard's
  population slice, the RNG stream ids the worker consumed, per-vantage
  event counts, and the SHA-256 of the two data files.  It is written
  last (via rename), so a manifest's presence — with matching digests —
  is the checkpoint/resume layer's definition of "shard complete".

The round-trip is bit-exact: numeric columns travel as raw numpy dtypes
and object values are restored to the same ``bytes``/``tuple`` shapes
the capture pipeline produces, so a merged run is indistinguishable from
a single-process run at the same seed.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from collections import Counter
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from repro.honeypots.telescope import TelescopeCapture
from repro.io.table import _DTYPES, NUMERIC_COLUMNS, OBJECT_COLUMNS, EventTable

__all__ = [
    "SHARD_FORMAT",
    "shard_dir_name",
    "write_shard",
    "read_manifest",
    "verify_shard",
    "load_shard_tables",
    "merge_telescope_shard",
    "file_sha256",
]

#: Format identifier embedded in every manifest and NDJSON header.
SHARD_FORMAT = "cloudwatching-shard/2"

_COLUMNS_FILE = "columns.npz"
_OBJECTS_FILE = "objects.ndjson"
_MANIFEST_FILE = "manifest.json"


def shard_dir_name(shard_index: int) -> str:
    return f"shard-{shard_index:04d}"


def file_sha256(path: Union[str, Path]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# object-pool encoding
# ----------------------------------------------------------------------

def _encode_pool(name: str, pool: list) -> list:
    if name == "payload":
        return [base64.b64encode(value).decode("ascii") for value in pool]
    if name == "credentials":
        return [[[username, password] for username, password in pairs] for pairs in pool]
    return [list(commands) for commands in pool]


def _decode_pool(name: str, encoded: list) -> np.ndarray:
    if name == "payload":
        values = [base64.b64decode(item) if item else b"" for item in encoded]
    elif name == "credentials":
        values = [tuple((username, password) for username, password in pairs)
                  for pairs in encoded]
    else:
        values = [tuple(commands) for commands in encoded]
    pool = np.empty(len(values), dtype=object)
    pool[:] = values
    return pool


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

def write_shard(
    directory: Union[str, Path],
    tables: Mapping[str, EventTable],
    telescope: Optional[TelescopeCapture],
    manifest_extra: dict,
) -> dict:
    """Spill one worker's capture to ``directory``; returns the manifest.

    ``manifest_extra`` carries the orchestration fields (config digest,
    shard/population slice, RNG stream ids); this function adds the
    format version, event counts, and data-file digests, and writes the
    manifest *last* so completion is atomic.

    Each bank is one concatenation of the vantages' consolidated columns
    in sorted vantage order (a simulation run's tables build a column in
    one :class:`~repro.io.table.ConsolidationGroup` gather), and each
    object pool is one interning pass over its bank: values numbered in
    first-seen order over (sorted vantage, row).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    order = [vantage_id for vantage_id in sorted(tables)
             if len(tables[vantage_id])]
    ordered = [tables[vantage_id] for vantage_id in order]
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum([len(table) for table in ordered], out=offsets[1:])
    total_rows = int(offsets[-1])

    def bank(name: str) -> np.ndarray:
        if not ordered:
            return np.empty(0, dtype=_DTYPES.get(name, object))
        return np.concatenate([table.column(name) for table in ordered])

    arrays: dict[str, np.ndarray] = {"bank|offsets": offsets}
    for name in NUMERIC_COLUMNS:
        arrays[f"bank|{name}"] = bank(name)

    pools: dict[str, list] = {}
    for name in OBJECT_COLUMNS:
        pool: dict = {}
        values = bank(name).tolist()
        arrays[f"bank|{name}.idx"] = np.fromiter(
            (pool.setdefault(value, len(pool)) for value in values),
            dtype=np.int32, count=len(values),
        )
        pools[name] = list(pool)

    vantage_records = []
    per_vantage_counts: dict[str, int] = {}
    for vantage_id in order:
        table = tables[vantage_id]
        per_vantage_counts[vantage_id] = len(table)
        vantage_records.append({
            "vantage_id": vantage_id,
            "network": table.network,
            "kind": table.network_kind.value,
            "region": table.region,
            "rows": len(table),
        })

    telescope_summary: dict = {}
    if telescope is not None:
        for port in telescope.ports():
            counter = telescope.port_src_hits[port]
            pairs = sorted(counter.items())
            arrays[f"__telescope__|hits|{port}"] = np.asarray(
                pairs, dtype=np.int64
            ).reshape(len(pairs), 2)
        asn_pairs = sorted(telescope.asn_of_src.items())
        arrays["__telescope__|asn"] = np.asarray(
            asn_pairs, dtype=np.int64
        ).reshape(len(asn_pairs), 2)
        for port, array in sorted(telescope._port_dst_unique.items()):
            arrays[f"__telescope__|dst_unique|{port}"] = array
        telescope_summary = {
            "ports": telescope.ports(),
            "unique_sources": telescope.total_unique_sources(),
        }

    columns_path = directory / _COLUMNS_FILE
    np.savez(columns_path, **arrays)
    objects_path = directory / _OBJECTS_FILE
    with open(objects_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": SHARD_FORMAT}) + "\n")
        handle.write(json.dumps(
            {"vantages": vantage_records}, separators=(",", ":")
        ) + "\n")
        for name in OBJECT_COLUMNS:
            record = {"pool": name, "values": _encode_pool(name, pools[name])}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    manifest = {
        "format": SHARD_FORMAT,
        **manifest_extra,
        "events": {
            "total": total_rows,
            "per_vantage": per_vantage_counts,
        },
        "telescope": telescope_summary,
        "files": {
            _COLUMNS_FILE: file_sha256(columns_path),
            _OBJECTS_FILE: file_sha256(objects_path),
        },
    }
    manifest_path = directory / _MANIFEST_FILE
    scratch = directory / (_MANIFEST_FILE + ".tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(scratch, manifest_path)
    return manifest


# ----------------------------------------------------------------------
# reading / verification
# ----------------------------------------------------------------------

def read_manifest(directory: Union[str, Path]) -> Optional[dict]:
    """The shard's manifest, or None when absent/unparsable."""
    path = Path(directory) / _MANIFEST_FILE
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    if manifest.get("format") != SHARD_FORMAT:
        return None
    return manifest


def verify_shard(
    directory: Union[str, Path],
    config_digest: str,
    shard_index: int,
    num_shards: int,
    spec_range: tuple[int, int],
    check_data: bool = True,
) -> bool:
    """Whether the shard is complete *for this exact run plan*.

    A manifest from a different configuration, shard layout, or
    population slice never counts as complete — ``--resume`` only skips
    work that would be recomputed identically.
    """
    manifest = read_manifest(directory)
    if manifest is None:
        return False
    if manifest.get("config_digest") != config_digest:
        return False
    if manifest.get("shard_index") != shard_index:
        return False
    if manifest.get("num_shards") != num_shards:
        return False
    if list(manifest.get("spec_range", ())) != [spec_range[0], spec_range[1]]:
        return False
    if check_data:
        for filename, digest in manifest.get("files", {}).items():
            path = Path(directory) / filename
            if not path.exists() or file_sha256(path) != digest:
                return False
    return True


def load_shard_tables(directory: Union[str, Path]) -> dict[str, EventTable]:
    """Rebuild the shard's per-vantage :class:`EventTable` objects.

    The returned tables are *lazy*: their chunks resolve through the
    shard's memory-mapped column banks (:class:`repro.io.lazy.ShardBank`),
    so nothing beyond the vantage directory is read until a column is
    accessed.
    """
    from repro.io.lazy import open_shard

    return open_shard(directory).tables()


def merge_telescope_shard(
    telescope: TelescopeCapture, directory: Union[str, Path]
) -> None:
    """Fold one shard's telescope aggregate into ``telescope`` in place.

    All telescope quantities are sums over sources/destinations, so
    shard merge order does not matter.  v2 keeps the counters as npz
    arrays, so the merge never touches the (large) object-pool JSON.
    """
    from repro.io.lazy import open_shard

    bank = open_shard(directory)
    for key, array in bank.telescope_arrays():
        _, kind, *rest = key.split("|")
        if kind == "hits":
            port = int(rest[0])
            counter = telescope.port_src_hits.setdefault(port, Counter())
            for src, hits in np.asarray(array).tolist():
                counter[int(src)] += int(hits)
        elif kind == "asn":
            for src, asn in np.asarray(array).tolist():
                telescope.asn_of_src[int(src)] = int(asn)
        elif kind == "dst_unique":
            port = int(rest[0])
            telescope.record_destination_sources(port, np.asarray(array))
