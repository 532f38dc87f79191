"""Async load generator for the serving layer's benchmark.

Drives N concurrent keep-alive HTTP/1.1 client connections at a
:class:`~repro.serve.http.QueryServer` from inside the same process
(loopback, no external tooling), timing every request round-trip.  The
result is the serve benchmark's currency: sustained requests/second and
p50/p99 latency under thousands of simultaneous connections.

The client is as small as the server: write one GET at a time, read
the status line + headers, read exactly ``Content-Length`` body bytes.
Latency is measured per request (write → full body), so keep-alive reuse
is the steady state being measured, not connection setup.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

__all__ = ["LoadReport", "run_load", "raise_nofile_limit"]

#: Requests each client sends before its latencies are recorded.
_WARMUP_REQUESTS = 1


@dataclass(frozen=True)
class LoadReport:
    """One load run's outcome."""

    connections: int
    requests: int
    errors: int
    seconds: float
    rps: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    status_counts: dict

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "errors": self.errors,
            "seconds": round(self.seconds, 4),
            "rps": round(self.rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "status_counts": dict(self.status_counts),
        }


def raise_nofile_limit(wanted: int) -> int:
    """Best-effort bump of RLIMIT_NOFILE so ``wanted`` sockets can open.

    Returns the (possibly unchanged) soft limit.  Thousands of client +
    server socket pairs live in one process during the bench; default
    soft limits (1024 on many distros) would otherwise EMFILE.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return wanted
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= wanted:
        return soft
    target = min(wanted, hard) if hard != resource.RLIM_INFINITY else wanted
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (ValueError, OSError):  # pragma: no cover - locked-down env
        return soft
    return target


async def _read_response(reader: asyncio.StreamReader) -> int:
    """Read one response; return its status code (0 on EOF)."""
    status_line = await reader.readline()
    if not status_line:
        return 0
    parts = status_line.split()
    status = int(parts[1]) if len(parts) >= 2 and parts[1].isdigit() else 0
    content_length = 0
    while True:
        line = await reader.readline()
        if not line:
            return 0
        if line in (b"\r\n", b"\n"):
            break
        name, _sep, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            content_length = int(value.strip() or 0)
    if content_length:
        await reader.readexactly(content_length)
    return status


async def run_load(
    host: str,
    port: int,
    paths: list[str],
    connections: int = 1000,
    duration_seconds: float = 5.0,
) -> LoadReport:
    """Hold ``connections`` keep-alive clients open and hammer ``paths``.

    Every client cycles through the path list (offset by its index so
    the endpoint mix is uniform at any instant) until the deadline, then
    finishes its in-flight request and disconnects.  Per-request latency
    (write → body fully read) lands in one shared list; the report
    carries its p50/p99.
    """
    if not paths:
        raise ValueError("paths must be non-empty")
    raise_nofile_limit(2 * connections + 64)

    latencies: list[float] = []
    status_counts: dict[str, int] = {}
    errors = 0
    started = time.perf_counter()
    deadline = started + duration_seconds

    async def _client(which: int) -> None:
        nonlocal errors
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            errors += 1
            return
        try:
            step = which
            served = 0
            while True:
                now = time.perf_counter()
                if now >= deadline and served >= _WARMUP_REQUESTS:
                    break
                path = paths[step % len(paths)]
                step += 1
                request = (
                    f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                ).encode("latin-1")
                begin = time.perf_counter()
                writer.write(request)
                await writer.drain()
                status = await _read_response(reader)
                elapsed = time.perf_counter() - begin
                if status == 0:
                    errors += 1
                    break
                served += 1
                if served > _WARMUP_REQUESTS:
                    latencies.append(elapsed)
                key = str(status)
                status_counts[key] = status_counts.get(key, 0) + 1
        except (OSError, asyncio.IncompleteReadError, ValueError):
            errors += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.IncompleteReadError):  # lint: disable=EXC002 - dead conn teardown
                pass

    await asyncio.gather(*(_client(index) for index in range(connections)))
    seconds = time.perf_counter() - started

    ordered = sorted(latencies)
    requests = sum(status_counts.values())

    def _percentile(fraction: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index] * 1000.0

    return LoadReport(
        connections=connections,
        requests=requests,
        errors=errors,
        seconds=seconds,
        rps=(requests / seconds) if seconds > 0 else 0.0,
        p50_ms=_percentile(0.50),
        p99_ms=_percentile(0.99),
        max_ms=ordered[-1] * 1000.0 if ordered else 0.0,
        status_counts=status_counts,
    )
