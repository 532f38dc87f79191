"""Traffic replayer: drive live honeypots with simulated scan intents.

Takes :class:`~repro.sim.events.ScanIntent` objects (or raw payloads and
credential sequences) and performs them over real TCP connections, so a
simulated campaign can be replayed against the asyncio honeypots and the
captured events compared with the simulator's output.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.events import Credential, ScanIntent

__all__ = ["ReplayClient", "replay_intents"]

#: Seconds a replayed session waits to connect, and for each read.
_CONNECT_TIMEOUT = 5.0
_IO_TIMEOUT = 5.0
#: Sessions :func:`replay_intents` keeps in flight at once.
_CONCURRENCY = 8


@dataclass
class ReplayClient:
    """Replays scan sessions against a host:port map."""

    host: str = "127.0.0.1"

    async def send_payload(self, port: int, payload: bytes) -> bytes:
        """Open a connection, send one payload, return the server reply."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, port), timeout=_CONNECT_TIMEOUT
        )
        try:
            if payload:
                writer.write(payload)
                await writer.drain()
            try:
                return await asyncio.wait_for(reader.read(64 * 1024), timeout=_IO_TIMEOUT)
            except asyncio.TimeoutError:
                return b""
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def login_session(
        self,
        port: int,
        credentials: Sequence[Credential | tuple[str, str]],
        commands: Sequence[str] = (),
    ) -> bytes:
        """Drive a Telnet-style login sequence, then a shell if offered.

        After the final credential pair, if ``commands`` are given the
        client waits for a shell prompt and types them one by one,
        finishing with ``exit`` — the loader behavior Cowrie records.
        """
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, port), timeout=_CONNECT_TIMEOUT
        )
        transcript = b""
        try:
            for credential in credentials:
                username, password = (
                    credential.as_tuple() if isinstance(credential, Credential) else credential
                )
                transcript += await self._read_until_prompt(reader, b"login: ")
                writer.write(username.encode("utf-8") + b"\r\n")
                await writer.drain()
                transcript += await self._read_until_prompt(reader, b"Password: ")
                writer.write(password.encode("utf-8") + b"\r\n")
                await writer.drain()
            for command in commands:
                transcript += await self._read_until_prompt(reader, b"$ ")
                writer.write(command.encode("utf-8") + b"\r\n")
                await writer.drain()
            if commands:
                transcript += await self._read_until_prompt(reader, b"$ ")
                writer.write(b"exit\r\n")
                await writer.drain()
            return transcript
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_until_prompt(self, reader: asyncio.StreamReader, prompt: bytes) -> bytes:
        buffer = b""
        while prompt not in buffer:
            try:
                chunk = await asyncio.wait_for(reader.read(1024), timeout=_IO_TIMEOUT)
            except asyncio.TimeoutError:
                break
            if not chunk:
                break
            buffer += chunk
        return buffer

    async def replay(self, intent: ScanIntent, port_map: dict[int, int]) -> None:
        """Replay one intent; ``port_map`` maps intent ports to bound ports."""
        port = port_map.get(intent.dst_port, intent.dst_port)
        if intent.credentials and intent.protocol == "telnet":
            await self.login_session(port, intent.credentials, commands=intent.commands)
        else:
            await self.send_payload(port, intent.payload)


async def replay_intents(
    intents: Iterable[ScanIntent],
    port_map: dict[int, int],
    host: str = "127.0.0.1",
) -> int:
    """Replay many intents with bounded concurrency; returns the count."""
    client = ReplayClient(host=host)
    semaphore = asyncio.Semaphore(_CONCURRENCY)
    count = 0

    async def _one(intent: ScanIntent) -> None:
        async with semaphore:
            await client.replay(intent, port_map)

    tasks = [asyncio.create_task(_one(intent)) for intent in intents]
    for task in tasks:
        await task
        count += 1
    return count
