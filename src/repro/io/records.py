"""Dataset serialization: newline-delimited JSON event records.

The paper releases its scanning dataset; this module defines the release
format for ours.  Each line is one captured event; payload bytes are
base64-encoded; field names are stable and documented here so external
tools can consume the files.

The format round-trips exactly: ``read_events(write_events(events))``
reproduces the input records.
"""

from __future__ import annotations

import base64
import gzip
import json
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind

__all__ = ["event_to_record", "record_to_event", "write_events", "read_events"]

#: Format identifier embedded in every file's header line.
FORMAT_VERSION = "cloudwatching-events/1"


def event_to_record(event: CapturedEvent) -> dict:
    """Convert one event to its JSON-serializable record."""
    return {
        "vantage": event.vantage_id,
        "network": event.network,
        "kind": event.network_kind.value,
        "region": event.region,
        "ts": round(event.timestamp, 6),
        "src_ip": event.src_ip,
        "src_asn": event.src_asn,
        "dst_ip": event.dst_ip,
        "dst_port": event.dst_port,
        "transport": event.transport.value,
        "handshake": event.handshake,
        "payload": base64.b64encode(event.payload).decode("ascii") if event.payload else "",
        "credentials": [[username, password] for username, password in event.credentials],
        "commands": list(event.commands),
    }


def record_to_event(record: dict) -> CapturedEvent:
    """Inverse of :func:`event_to_record`."""
    return CapturedEvent(
        vantage_id=record["vantage"],
        network=record["network"],
        network_kind=NetworkKind(record["kind"]),
        region=record["region"],
        timestamp=float(record["ts"]),
        src_ip=int(record["src_ip"]),
        src_asn=int(record["src_asn"]),
        dst_ip=int(record["dst_ip"]),
        dst_port=int(record["dst_port"]),
        transport=Transport(record["transport"]),
        handshake=bool(record["handshake"]),
        payload=base64.b64decode(record["payload"]) if record["payload"] else b"",
        credentials=tuple((u, p) for u, p in record.get("credentials", [])),
        commands=tuple(record.get("commands", [])),
    )


def _open(path: Union[str, Path], mode: str) -> IO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_events(path: Union[str, Path], events: Iterable[CapturedEvent]) -> int:
    """Write events as NDJSON (gzip when the path ends in .gz).

    Returns the number of events written.  The first line is a header
    record carrying the format version.
    """
    count = 0
    with _open(path, "w") as handle:
        handle.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
        for event in events:
            handle.write(json.dumps(event_to_record(event), separators=(",", ":")) + "\n")
            count += 1
    return count


def read_events(path: Union[str, Path]) -> Iterator[CapturedEvent]:
    """Stream events back from an NDJSON file."""
    with _open(path, "r") as handle:
        header_line = handle.readline()
        if not header_line:
            return
        header = json.loads(header_line)
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format: {header.get('format')!r}")
        for line in handle:
            line = line.strip()
            if line:
                yield record_to_event(json.loads(line))

