"""Integration tests for the live asyncio honeypots and the replayer."""

import asyncio

import numpy as np
import pytest

from repro.detection.fingerprint import fingerprint
from repro.honeypots.live import (
    FirstPayloadService,
    HttpService,
    LiveHoneypot,
    ReplayClient,
    SshBannerService,
    TelnetService,
    replay_intents,
)
from repro.scanners.base import PortPlan
from repro.scanners.payloads import http_payload, protocol_first_payload
from repro.sim.events import Credential, ScanIntent


def run(coroutine):
    return asyncio.run(coroutine)


class TestHttpService:
    def test_request_captured_and_answered(self):
        async def scenario():
            async with LiveHoneypot(services={0: HttpService()}) as pot:
                client = ReplayClient()
                request = http_payload("root-get").render("127.0.0.1")
                reply = await client.send_payload(pot.bound_ports[0], request)
                return pot.events, reply

        events, reply = run(scenario())
        assert reply.startswith(b"HTTP/1.1 200 OK")
        assert len(events) == 1
        assert fingerprint(events[0].payload) == "http"
        assert events[0].handshake

    def test_exploit_payload_captured_verbatim(self):
        async def scenario():
            async with LiveHoneypot(services={0: HttpService()}) as pot:
                payload = http_payload("log4shell").render("127.0.0.1")
                await ReplayClient().send_payload(pot.bound_ports[0], payload)
                return pot.events, payload

        events, payload = run(scenario())
        assert events[0].payload == payload


class TestTelnetService:
    def test_credentials_recorded(self):
        async def scenario():
            async with LiveHoneypot(services={0: TelnetService()}) as pot:
                await ReplayClient().login_session(
                    pot.bound_ports[0],
                    [Credential("root", "xc3511"), Credential("admin", "admin")],
                )
                return pot.events

        events = run(scenario())
        assert events[0].credentials == (("root", "xc3511"), ("admin", "admin"))

    def test_connection_without_login_recorded(self):
        async def scenario():
            async with LiveHoneypot(services={0: TelnetService()}) as pot:
                reader, writer = await asyncio.open_connection("127.0.0.1", pot.bound_ports[0])
                await reader.read(64)
                writer.close()
                await writer.wait_closed()
                await pot.stop()
                return pot.events

        events = run(scenario())
        assert len(events) == 1
        assert events[0].credentials == ()


class TestSshBanner:
    def test_banner_exchange(self):
        async def scenario():
            async with LiveHoneypot(services={0: SshBannerService()}) as pot:
                reply = await ReplayClient().send_payload(
                    pot.bound_ports[0], protocol_first_payload("ssh")
                )
                return pot.events, reply

        events, reply = run(scenario())
        assert reply.startswith(b"SSH-2.0-OpenSSH")
        assert fingerprint(events[0].payload) == "ssh"


class TestFirstPayloadService:
    def test_unexpected_protocol_on_http_port(self):
        """The Section 6 scenario: a TLS ClientHello aimed at port 80."""

        async def scenario():
            async with LiveHoneypot(services={0: FirstPayloadService()}) as pot:
                await ReplayClient().send_payload(
                    pot.bound_ports[0], protocol_first_payload("tls")
                )
                return pot.events

        events = run(scenario())
        assert fingerprint(events[0].payload) == "tls"

    def test_silent_connection(self):
        async def scenario():
            pot = LiveHoneypot(services={0: FirstPayloadService()})
            pot.services[0].read_timeout = 0.2
            async with pot:
                reader, writer = await asyncio.open_connection("127.0.0.1", pot.bound_ports[0])
                await asyncio.sleep(0.3)
                writer.close()
                await writer.wait_closed()
                await pot.stop()
                return pot.events

        events = run(scenario())
        assert len(events) == 1
        assert events[0].payload == b""


class TestReplayIntents:
    def test_replay_many(self):
        async def scenario():
            # keys 0/-1 request ephemeral ports; port_map translates below
            pot = LiveHoneypot(services={0: HttpService(), -1: TelnetService()})
            async with pot:
                port_map = {80: pot.bound_ports[0], 23: pot.bound_ports[-1]}
                rng = np.random.default_rng(0)
                http_plan = PortPlan(80, "http", 1.0,
                                     http_payloads=("root-get",), http_weights=(1.0,))
                telnet_plan = PortPlan(23, "telnet", 1.0,
                                       credential_dialect="mirai",
                                       credential_attempts=(2, 2))
                intents = [
                    *http_plan.build_intent_batch(
                        rng, np.full(4, 0.1), 100 + np.arange(4), np.full(4, 200)).intents(),
                    *telnet_plan.build_intent_batch(
                        rng, np.full(2, 0.2), 300 + np.arange(2), np.full(2, 200)).intents(),
                ]
                count = await replay_intents(intents, port_map)
                await pot.stop()
                return count, pot.events

        count, events = run(scenario())
        assert count == 6
        assert len(events) == 6
        telnet_events = [event for event in events if event.credentials]
        assert len(telnet_events) == 2


class TestLifecycle:
    def test_double_start_rejected(self):
        async def scenario():
            pot = LiveHoneypot(services={0: HttpService()})
            await pot.start()
            with pytest.raises(RuntimeError):
                await pot.start()
            await pot.stop()

        run(scenario())

    def test_multiple_services_distinct_ports(self):
        async def scenario():
            pot = LiveHoneypot(services={0: HttpService(), -1: TelnetService()})
            async with pot:
                return dict(pot.bound_ports)

        ports = run(scenario())
        assert len(set(ports.values())) == 2


class TestConcurrentReplay:
    def test_no_event_loss_under_concurrent_connections(self):
        """Thirty-two clients hammering one service at once: every
        session is captured, and the on_event stream tap sees each one."""

        async def scenario():
            streamed = []
            pot = LiveHoneypot(services={0: HttpService()},
                               on_event=streamed.append)
            async with pot:
                port = pot.bound_ports[0]
                request = http_payload("root-get").render("127.0.0.1")

                async def one_client(i):
                    return await ReplayClient().send_payload(port, request)

                replies = await asyncio.gather(*(one_client(i) for i in range(32)))
                await pot.stop()
                return replies, pot.events, streamed

        replies, events, streamed = run(scenario())
        assert len(replies) == 32
        assert all(reply.startswith(b"HTTP/1.1 200 OK") for reply in replies)
        assert len(events) == 32  # zero loss
        assert len(streamed) == 32  # the live tap saw every session
        assert {id(event) for event in streamed} == {id(event) for event in events}

    def test_concurrent_telnet_sessions_keep_credentials_separate(self):
        async def scenario():
            pot = LiveHoneypot(services={0: TelnetService()})
            async with pot:
                port = pot.bound_ports[0]
                await asyncio.gather(*(
                    ReplayClient().login_session(
                        port, [Credential(f"user{i}", f"pass{i}")]
                    )
                    for i in range(8)
                ))
                await pot.stop()
                return pot.events

        events = run(scenario())
        assert len(events) == 8
        recorded = {event.credentials for event in events}
        assert recorded == {((f"user{i}", f"pass{i}"),) for i in range(8)}


class TestResourceCaps:
    def test_connection_limit_rejects_excess_clients(self):
        """With max_connections=1 and one connection parked in the
        handler, further connections are turned away and counted."""

        async def scenario():
            pot = LiveHoneypot(services={0: FirstPayloadService()},
                               max_connections=1)
            pot.services[0].read_timeout = 1.0
            async with pot:
                port = pot.bound_ports[0]
                # Park a silent connection inside the handler.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                await asyncio.sleep(0.1)
                # These arrive while the slot is taken.
                for _ in range(3):
                    r2, w2 = await asyncio.open_connection("127.0.0.1", port)
                    assert await r2.read(64) == b""  # closed without service
                    w2.close()
                    await w2.wait_closed()
                writer.close()
                await writer.wait_closed()
                await pot.stop()
                return pot

        pot = run(scenario())
        assert pot.rejected_connections == 3
        assert len(pot.events) == 1  # only the parked connection was served

    def test_oversized_first_payload_is_capped(self):
        """A client streaming far more than max_payload_bytes cannot
        make the server buffer it all: the capture is capped."""

        async def scenario():
            pot = LiveHoneypot(services={0: FirstPayloadService()})
            async with pot:
                blob = b"A" * (256 * 1024)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", pot.bound_ports[0]
                )
                try:
                    # The server caps its read and closes mid-stream; the
                    # resulting reset on our side is the expected outcome.
                    writer.write(blob)
                    await writer.drain()
                    await reader.read()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                await pot.stop()
                return pot.events

        events = run(scenario())
        assert len(events) == 1
        assert 0 < len(events[0].payload) <= pot_max_payload()

    def test_oversized_telnet_line_does_not_kill_session(self):
        """A 200 KB username with no newline in sight: the session
        survives, the event is recorded, credentials stay empty."""

        async def scenario():
            pot = LiveHoneypot(services={0: TelnetService()})
            async with pot:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", pot.bound_ports[0]
                )
                await reader.read(64)  # banner
                writer.write(b"B" * (200 * 1024))  # no newline: overruns the limit
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await pot.stop()
                return pot.events

        events = run(scenario())
        assert len(events) == 1
        assert events[0].credentials == ()


def pot_max_payload() -> int:
    return FirstPayloadService().max_payload_bytes


class TestLiveAnalysisIntegration:
    def test_live_capture_feeds_analysis_pipeline(self):
        """Live-captured events run through the same AnalysisDataset the
        simulator feeds — fingerprints, maliciousness, counters."""
        from repro.analysis.dataset import AnalysisDataset
        from repro.honeypots.live import live_vantage
        from repro.sim.clock import WEEK_2021

        async def scenario():
            pot = LiveHoneypot(services={0: HttpService(), -1: TelnetService()})
            async with pot:
                client = ReplayClient()
                await client.send_payload(
                    pot.bound_ports[0], http_payload("log4shell").render("127.0.0.1")
                )
                await client.send_payload(
                    pot.bound_ports[0], http_payload("root-get").render("127.0.0.1")
                )
                await client.login_session(
                    pot.bound_ports[-1], [Credential("root", "xc3511")]
                )
                await pot.stop()
            return pot

        pot = run(scenario())
        dataset = AnalysisDataset(pot.events, [live_vantage(pot)], WEEK_2021)
        engine = dataset.contingency()
        malicious, total = engine.fraction("any_all", range(len(engine.vantage_ids)))
        assert total == 3
        assert malicious == 2  # exploit + login attempt; benign GET passes
        protocols = {fingerprint(event.payload) for event in pot.events}
        assert "http" in protocols
