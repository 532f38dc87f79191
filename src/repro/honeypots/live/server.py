"""Live asyncio honeypots: real sockets, same capture semantics.

These servers implement the capture behaviors of the simulated stacks on
actual TCP sockets, so the repository's capture logic can be exercised
end-to-end over loopback:

* :class:`FirstPayloadService` — Honeytrap semantics: complete the TCP
  handshake (implicit in accepting), read the first payload, record it.
* :class:`HttpService` — additionally answer with a minimal banner page
  (what makes a honeypot look like a real service to crawlers).
* :class:`TelnetService` — Cowrie-style interactive login emulation:
  prompts for username/password and records every attempt.
* :class:`SshBannerService` — SSH identification-string exchange and
  first-packet capture.  Full SSH cryptography is out of scope (no
  crypto dependencies are available); credential-level SSH capture is
  exercised by the simulated Cowrie stack instead.

The server records :class:`~repro.sim.events.CapturedEvent` objects, the
same schema the simulator produces, so every analysis runs unchanged on
live-captured traffic.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.addresses import ip_to_int
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind

__all__ = [
    "ServiceEmulator",
    "FirstPayloadService",
    "HttpService",
    "TelnetService",
    "SshBannerService",
    "LiveHoneypot",
]

_READ_LIMIT = 64 * 1024


class ServiceEmulator:
    """One emulated service: how to converse and what to capture."""

    #: Seconds to wait for client data before giving up on a read.
    read_timeout: float = 5.0
    #: Hard cap on the recorded first payload.  A scanner that streams
    #: an arbitrarily large body must not grow the capture unboundedly:
    #: reads stop at this many bytes and the remainder is never buffered.
    max_payload_bytes: int = 8 * 1024
    #: Hard cap on one line of a line-oriented conversation; longer
    #: lines are truncated to this many bytes rather than buffered.
    max_line_bytes: int = 1024

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[bytes, tuple[tuple[str, str], ...], tuple[str, ...]]:
        """Run the conversation; return (first_payload, credentials,
        post-login shell commands)."""
        raise NotImplementedError

    async def _read_some(self, reader: asyncio.StreamReader) -> bytes:
        limit = min(self.max_payload_bytes, _READ_LIMIT)
        try:
            return await asyncio.wait_for(reader.read(limit), timeout=self.read_timeout)
        except asyncio.TimeoutError:
            return b""


class FirstPayloadService(ServiceEmulator):
    """Honeytrap: record the first TCP payload after the handshake."""

    async def handle(self, reader, writer):
        payload = await self._read_some(reader)
        return payload, (), ()


class HttpService(ServiceEmulator):
    """A vulnerable-looking HTTP responder that records the request."""

    server_header = "Apache/2.4.29 (Ubuntu)"

    async def handle(self, reader, writer):
        payload = await self._read_some(reader)
        if payload:
            body = b"<html><body><h1>It works!</h1></body></html>"
            response = (
                b"HTTP/1.1 200 OK\r\n"
                b"Server: " + self.server_header.encode("ascii") + b"\r\n"
                b"Content-Type: text/html\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            writer.write(response)
            await writer.drain()
        return payload, (), ()


class TelnetService(ServiceEmulator):
    """Cowrie-style Telnet login emulation with a fake shell.

    Rejects the first ``accept_after - 1`` credential attempts, then
    "accepts" the next one and presents a fake busybox shell, recording
    every command until the intruder exits (Cowrie's command capture).
    Set ``accept_after=0`` to never accept.
    """

    banner = b"\r\nlogin: "
    shell_prompt = b"\r\n$ "
    max_attempts = 6
    max_commands = 32

    def __init__(self, accept_after: int = 0) -> None:
        if accept_after < 0:
            raise ValueError("accept_after must be >= 0")
        self.accept_after = accept_after

    async def _read_line(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=self.read_timeout)
        except asyncio.TimeoutError:
            return None
        except (ValueError, asyncio.LimitOverrunError, asyncio.IncompleteReadError):
            # A line longer than the stream's buffer limit: drop the
            # connection's pathological input rather than buffering it.
            return None
        if not line:
            return None
        return line.strip(b"\r\n")[: self.max_line_bytes]

    async def _run_shell(self, reader, writer) -> list[str]:
        commands: list[str] = []
        writer.write(b"\r\nBusyBox v1.20.2 built-in shell (ash)")
        for _turn in range(self.max_commands):
            writer.write(self.shell_prompt)
            await writer.drain()
            line = await self._read_line(reader)
            if line is None:
                break
            command = line.decode("utf-8", errors="replace").strip()
            if not command:
                continue
            if command in ("exit", "quit", "logout"):
                break
            commands.append(command)
            writer.write(b"\r\n")  # every command "succeeds" silently
            await writer.drain()
        return commands

    async def handle(self, reader, writer):
        credentials: list[tuple[str, str]] = []
        commands: list[str] = []
        first_payload = b""
        writer.write(self.banner)
        await writer.drain()
        for attempt in range(1, self.max_attempts + 1):
            username = await self._read_line(reader)
            if username is None:
                break
            if not first_payload:
                first_payload = username
            writer.write(b"Password: ")
            await writer.drain()
            password = await self._read_line(reader)
            if password is None:
                break
            credentials.append(
                (
                    username.decode("utf-8", errors="replace"),
                    password.decode("utf-8", errors="replace"),
                )
            )
            if self.accept_after and attempt >= self.accept_after:
                commands = await self._run_shell(reader, writer)
                break
            writer.write(b"\r\nLogin incorrect\r\nlogin: ")
            await writer.drain()
        return first_payload, tuple(credentials), tuple(commands)


class SshBannerService(ServiceEmulator):
    """SSH identification exchange + first-packet capture."""

    banner = b"SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.5\r\n"

    async def handle(self, reader, writer):
        writer.write(self.banner)
        await writer.drain()
        payload = await self._read_some(reader)
        return payload, (), ()


@dataclass
class LiveHoneypot:
    """An asyncio honeypot exposing emulated services on loopback ports.

    ``services`` maps a requested port to an emulator; a requested port
    of 0 or any negative number binds an OS-assigned ephemeral port
    (negative keys let one honeypot host several ephemeral services).
    After :meth:`start`, :attr:`bound_ports` maps each requested key to
    the port actually listening.  Captured events accumulate in
    :attr:`events` with the same schema the simulator emits.
    """

    vantage_id: str = "live-0"
    network: str = "stanford"
    kind: NetworkKind = NetworkKind.EDU
    region: str = "US-WEST"
    host: str = "127.0.0.1"
    services: dict[int, ServiceEmulator] = field(default_factory=dict)
    events: list[CapturedEvent] = field(default_factory=list)
    #: Called with each event as it is recorded (the streaming tap).
    on_event: Optional[Callable[[CapturedEvent], None]] = None
    #: Concurrent-session cap across all services (0 = unlimited); a
    #: connection arriving at the cap is closed immediately and counted
    #: in :attr:`rejected_connections`.
    max_connections: int = 0

    def __post_init__(self) -> None:
        self._servers: list[asyncio.base_events.Server] = []
        self.bound_ports: dict[int, int] = {}  # requested -> actual
        self._started_at = 0.0
        self._active_handlers = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.rejected_connections = 0

    async def start(self) -> None:
        if self._servers:
            raise RuntimeError("honeypot already started")
        self._started_at = time.monotonic()
        for requested_port, emulator in self.services.items():
            bind_port = max(requested_port, 0)
            server = await asyncio.start_server(
                self._make_handler(requested_port, emulator), self.host, bind_port,
                limit=_READ_LIMIT,
            )
            actual_port = server.sockets[0].getsockname()[1]
            self.bound_ports[requested_port] = actual_port
            self._servers.append(server)

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop listening, then wait for in-flight sessions to finish
        recording (bounded by ``drain_timeout``)."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass

    async def __aenter__(self) -> "LiveHoneypot":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _timestamp_hours(self) -> float:
        return (time.monotonic() - self._started_at) / 3600.0

    def _make_handler(self, requested_port: int, emulator: ServiceEmulator):
        async def _handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            if self.max_connections and self._active_handlers >= self.max_connections:
                self.rejected_connections += 1
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                return
            self._active_handlers += 1
            self._idle.clear()
            peer = writer.get_extra_info("peername") or ("0.0.0.0", 0)
            sock = writer.get_extra_info("sockname") or (self.host, requested_port)
            src_ip = ip_to_int(peer[0]) if "." in str(peer[0]) else 0
            try:
                try:
                    payload, credentials, commands = await emulator.handle(reader, writer)
                except (ConnectionResetError, BrokenPipeError):
                    payload, credentials, commands = b"", (), ()
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                event = CapturedEvent(
                    vantage_id=self.vantage_id,
                    network=self.network,
                    network_kind=self.kind,
                    region=self.region,
                    timestamp=self._timestamp_hours(),
                    src_ip=src_ip,
                    src_asn=0,  # live captures have no IP-to-AS lookup
                    dst_ip=ip_to_int(sock[0]) if "." in str(sock[0]) else 0,
                    dst_port=requested_port if requested_port > 0 else sock[1],
                    transport=Transport.TCP,
                    handshake=True,
                    payload=payload,
                    credentials=credentials,
                    commands=commands,
                )
                self.events.append(event)
                if self.on_event is not None:
                    self.on_event(event)
            finally:
                self._active_handlers -= 1
                if self._active_handlers == 0:
                    self._idle.set()

        return _handler


def live_vantage(honeypot: LiveHoneypot) -> "VantagePoint":
    """Wrap a live honeypot as a VantagePoint so its captured events can
    feed the same :class:`~repro.analysis.dataset.AnalysisDataset`
    pipeline the simulator's events do."""
    import numpy as np

    from repro.honeypots.base import VantagePoint
    from repro.honeypots.honeytrap import HoneytrapStack
    from repro.net.addresses import ip_to_int

    return VantagePoint(
        vantage_id=honeypot.vantage_id,
        network=honeypot.network,
        kind=honeypot.kind,
        region_code=honeypot.region,
        continent="NA",
        ips=np.asarray([ip_to_int(honeypot.host)], dtype=np.uint32),
        stack=HoneytrapStack(),
    )
