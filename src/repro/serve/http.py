"""The asyncio HTTP/1.1 front of the serving layer.

A deliberately small, dependency-free server: stdlib ``asyncio`` streams,
GET-only, keep-alive, JSON in and out.  It exists to put the paper's
"queryable GreyNoise" shape over whichever backend it is given — the
backend does all the thinking, this module does wire discipline:

* **hardening** mirrors the live honeypots' knobs — connection cap with
  rejection accounting, per-connection read limits, request-line/header
  byte caps, read timeouts, bounded keep-alive request counts;
* **structured errors** — contract violations arrive as
  :class:`~repro.serve.schema.SchemaError` and leave as a 400 whose body
  is the machine-readable ``{"error": "validation", "errors": [...]}``;
* **content addressing** — when the backend can name a response
  (run-dir mode: dataset digest + endpoint + params), the encoded bytes
  are cached in a bounded LRU and the name doubles as a strong ``ETag``,
  so a client replaying a query gets a ``304 Not Modified`` for free;
* **graceful drain** — :meth:`QueryServer.stop` stops accepting, then
  waits (bounded) for every connection handler to finish, rejected
  ones included, so no handler outlives the loop that runs the server.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.serve.backends import ServeBackend
from repro.serve.schema import SchemaError

__all__ = ["ServeOptions", "ServerStats", "QueryServer"]

#: StreamReader buffer bound per connection (bytes).
_READ_LIMIT = 64 * 1024

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServeOptions:
    """Listener + hardening knobs for :class:`QueryServer`.

    The defaults are sized for the load benchmark: thousands of
    concurrent keep-alive connections, each request a few hundred bytes.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Listen backlog handed to the OS.
    backlog: int = 512
    #: Concurrent-connection cap (0 = unlimited); a connection arriving
    #: at the cap is answered 503 and closed, counted in
    #: :attr:`ServerStats.rejected_connections`.
    max_connections: int = 4096
    #: Hard cap on one request head (request line + headers, bytes).
    max_request_bytes: int = 8 * 1024
    #: Seconds to wait for the next request on an idle connection.
    read_timeout: float = 30.0
    #: Requests served per connection before it is closed (0 = unlimited).
    keepalive_requests: int = 0
    #: Seconds :meth:`QueryServer.stop` waits for in-flight requests.
    drain_timeout: float = 10.0
    #: Encoded responses kept in the content-addressed cache.
    cache_entries: int = 1024


@dataclass
class ServerStats:
    """Wire-level accounting, exposed by ``/stats`` next to the bus's."""

    connections_accepted: int = 0
    rejected_connections: int = 0
    requests_served: int = 0
    responses_by_status: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    not_modified: int = 0
    active_connections: int = 0
    #: Connections where the peer vanished mid-write/mid-request —
    #: swallowed on the wire, but never silently (lint rule EXC002).
    peer_disconnects: int = 0

    def record(self, status: int) -> None:
        self.requests_served += 1
        key = str(status)
        self.responses_by_status[key] = self.responses_by_status.get(key, 0) + 1

    def as_dict(self) -> dict:
        return {
            "connections_accepted": self.connections_accepted,
            "rejected_connections": self.rejected_connections,
            "requests_served": self.requests_served,
            "responses_by_status": dict(self.responses_by_status),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "not_modified": self.not_modified,
            "active_connections": self.active_connections,
            "peer_disconnects": self.peer_disconnects,
        }


def _encode_json(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


async def _close_quietly(writer: asyncio.StreamWriter) -> None:
    """Close a transport, ignoring the peer having beaten us to it.

    Teardown of an already-dead connection is the one place a dropped
    exception carries no information — the close outcome is identical
    either way — hence the single sanctioned EXC002 suppression.
    """
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):  # lint: disable=EXC002 - peer already gone
        pass


class QueryServer:
    """Serve one :class:`~repro.serve.backends.ServeBackend` over HTTP."""

    def __init__(self, backend: ServeBackend, options: Optional[ServeOptions] = None) -> None:
        self.backend = backend
        self.options = options or ServeOptions()
        self.stats = ServerStats()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._cache: OrderedDict[str, bytes] = OrderedDict()
        self._connections: set[asyncio.StreamWriter] = set()
        #: Every running connection handler, accepted or rejected.
        self._handlers: set[asyncio.Task] = set()
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.options.host,
            self.options.port,
            backlog=self.options.backlog,
            limit=_READ_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, then drain in-flight requests (bounded)."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if not await self._wait_for_handlers(self.options.drain_timeout):
            # Idle keep-alive connections (parked in a read) are the
            # stragglers here; requests in flight have already finished
            # or are cut off at the deadline like everything else.
            for writer in list(self._connections):
                writer.close()
            await self._wait_for_handlers(1.0)  # drain is best-effort
        self._server = None
        self._draining = False

    async def _wait_for_handlers(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for every handler to finish.

        Python 3.11's ``Server.wait_closed`` does not wait for them, and a
        handler that starts during the wait is waited for too.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._handlers:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            await asyncio.wait(set(self._handlers), timeout=remaining)
        return True

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the wire -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        options = self.options
        if self._draining or (
            options.max_connections
            and self.stats.active_connections >= options.max_connections
        ):
            self.stats.rejected_connections += 1
            try:
                writer.write(self._render(503, {"error": "overloaded"}, close=True))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                self.stats.peer_disconnects += 1
            await _close_quietly(writer)
            return

        self.stats.connections_accepted += 1
        self.stats.active_connections += 1
        self._connections.add(writer)
        served_here = 0
        try:
            while True:
                close = False
                try:
                    head = await asyncio.wait_for(
                        self._read_head(reader), timeout=options.read_timeout
                    )
                except asyncio.TimeoutError:
                    break
                except _HeadTooLarge:
                    self.stats.record(431)
                    writer.write(self._render(431, {"error": "request too large"}, close=True))
                    await writer.drain()
                    break
                if head is None:
                    break
                status, body, etag, close = self._respond(head)
                served_here += 1
                if options.keepalive_requests and served_here >= options.keepalive_requests:
                    close = True
                if self._draining:
                    close = True
                self.stats.record(status)
                writer.write(self._render(status, body, etag=etag, close=close))
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            self.stats.peer_disconnects += 1
        finally:
            self._connections.discard(writer)
            await _close_quietly(writer)
            self.stats.active_connections -= 1

    async def _read_head(self, reader: asyncio.StreamReader):
        """One request head: (method, target, headers) or None at EOF."""
        budget = self.options.max_request_bytes
        request_line = await reader.readline()
        if not request_line:
            return None
        budget -= len(request_line)
        if budget < 0:
            raise _HeadTooLarge()
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return None
            budget -= len(line)
            if budget < 0:
                raise _HeadTooLarge()
            if line in (b"\r\n", b"\n"):
                break
            name, _sep, value = line.partition(b":")
            headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        parts = request_line.split()
        if len(parts) != 3:
            return ("", "", headers)
        method, target, _version = parts
        return (
            method.decode("latin-1", errors="replace"),
            target.decode("latin-1", errors="replace"),
            headers,
        )

    def _respond(self, head) -> tuple[int, Optional[dict], Optional[str], bool]:
        """(status, body-or-None-for-cached, etag, close) for one request."""
        method, target, headers = head
        wants_close = headers.get("connection", "").lower() == "close"
        if not method:
            return 400, {"error": "malformed request line"}, None, True
        if method != "GET":
            return 405, {"error": "method not allowed", "allow": ["GET"]}, None, wants_close

        split = urlsplit(target)
        path = unquote(split.path) or "/"
        params: dict[str, str] = {}
        duplicate = None
        for name, value in parse_qsl(split.query, keep_blank_values=True):
            if name in params:
                duplicate = name
            params[name] = value
        if duplicate is not None:
            error = SchemaError.single(duplicate, "duplicate parameter", params[duplicate])
            return 400, error.as_dict(), None, wants_close

        cache_key = self.backend.cache_key(path, params)
        if cache_key is not None and headers.get("if-none-match") == f'"{cache_key}"':
            self.stats.not_modified += 1
            return 304, None, cache_key, wants_close

        try:
            if cache_key is not None and cache_key in self._cache:
                self.stats.cache_hits += 1
                self._cache.move_to_end(cache_key)
                return 200, self._cache[cache_key], cache_key, wants_close
            body = self.backend.handle(path, params)
        except SchemaError as error:
            return 400, error.as_dict(), None, wants_close
        except Exception as error:  # noqa: BLE001 - the wire must answer
            return 500, {"error": "internal", "detail": str(error)[:200]}, None, True
        if body is None:
            return 404, {"error": "not found", "path": path}, None, wants_close
        if path == "/stats":
            body = {**body, "server": self.stats.as_dict()}
        if cache_key is not None:
            self.stats.cache_misses += 1
            encoded = _encode_json(body)
            self._cache[cache_key] = encoded
            while len(self._cache) > self.options.cache_entries:
                self._cache.popitem(last=False)
            return 200, encoded, cache_key, wants_close
        return 200, body, None, wants_close

    def _render(
        self,
        status: int,
        body,
        etag: Optional[str] = None,
        close: bool = False,
    ) -> bytes:
        if body is None:
            encoded = b""
        elif isinstance(body, bytes):
            encoded = body
        else:
            encoded = _encode_json(body)
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(encoded)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if etag is not None:
            head.append(f'ETag: "{etag}"')
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + encoded


class _HeadTooLarge(Exception):
    """A request head exceeded ``max_request_bytes``."""
