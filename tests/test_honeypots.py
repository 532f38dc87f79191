"""Tests for honeypot capture stacks and the telescope aggregate."""

import numpy as np
import pytest

from repro.honeypots.base import VantageCapture, VantagePoint
from repro.honeypots.cowrie import COWRIE_PORTS, CowrieStack
from repro.honeypots.greynoise import GREYNOISE_DEFAULT_PORTS, GreyNoiseStack
from repro.honeypots.honeytrap import HoneytrapStack
from repro.honeypots.telescope import TelescopeCapture, TelescopeStack
from repro.sim.events import Credential, NetworkKind, ScanIntent
from tests.conftest import capture_row, one_row_batch


def make_vantage(stack, ips=(1000,), kind=NetworkKind.CLOUD):
    return VantagePoint(
        vantage_id="v-0",
        network="aws",
        kind=kind,
        region_code="US-CA",
        continent="NA",
        ips=np.asarray(ips, dtype=np.uint32),
        stack=stack,
    )


def ssh_intent(port=22, credentials=((Credential("root", "123456"),))):
    return ScanIntent(
        timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=port,
        protocol="ssh", payload=b"SSH-2.0-Go\r\n",
        credentials=tuple(credentials) if credentials else (),
    )


def http_intent(port=80):
    return ScanIntent(
        timestamp=2.0, src_ip=7, dst_ip=1000, dst_port=port,
        protocol="http", payload=b"GET / HTTP/1.1\r\n\r\n",
    )


class TestCowrie:
    def test_observes_default_ports(self):
        stack = CowrieStack()
        assert all(stack.observes(port) for port in COWRIE_PORTS)
        assert not stack.observes(80)

    def test_captures_credentials(self):
        stack = CowrieStack()
        event = capture_row(make_vantage(stack), ssh_intent(), src_asn=4134)
        assert event.credentials == (("root", "123456"),)
        assert event.handshake
        assert event.src_asn == 4134

    def test_banner_only_session_recorded_without_credentials(self):
        stack = CowrieStack()
        event = capture_row(make_vantage(stack), ssh_intent(credentials=()))
        assert event.credentials == ()
        assert event.payload.startswith(b"SSH-")
        assert not event.attempted_login


class TestHoneytrap:
    def test_observes_all_ports(self):
        stack = HoneytrapStack()
        assert stack.observes(1) and stack.observes(65535)

    def test_first_payload_no_credentials(self):
        stack = HoneytrapStack()
        event = capture_row(make_vantage(stack), ssh_intent())
        assert event.payload.startswith(b"SSH-")
        assert event.credentials == ()  # Honeytrap cannot observe logins

    def test_interactive_ports_capture_credentials(self):
        stack = HoneytrapStack(interactive_ports=frozenset({22}))
        event = capture_row(make_vantage(stack), ssh_intent())
        assert event.credentials == (("root", "123456"),)
        other = capture_row(make_vantage(stack), ssh_intent(port=2222))
        assert other.credentials == ()


class TestGreyNoise:
    def test_default_ports(self):
        stack = GreyNoiseStack()
        for port in (22, 23, 80, 443):
            assert stack.observes(port)
        assert not stack.observes(5900)

    def test_cowrie_ports_capture_credentials(self):
        stack = GreyNoiseStack()
        event = capture_row(make_vantage(stack), ssh_intent())
        assert event.credentials == (("root", "123456"),)

    def test_non_cowrie_ports_payload_only(self):
        stack = GreyNoiseStack()
        intent = ScanIntent(
            timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=80,
            protocol="telnet", payload=b"\xff\xfb\x1f",
            credentials=(Credential("root", "root"),),
        )
        event = capture_row(make_vantage(stack), intent)
        assert event.payload == b"\xff\xfb\x1f"
        assert event.credentials == ()  # no login emulation off the Cowrie ports

    def test_requires_ports(self):
        with pytest.raises(ValueError):
            GreyNoiseStack(frozenset())

    def test_restricted_port_set(self):
        stack = GreyNoiseStack(frozenset({22, 23}))
        assert stack.observes(22) and not stack.observes(80)


class TestTelescopeStack:
    def test_never_completes_handshake(self):
        stack = TelescopeStack()
        assert not stack.completes_handshake

    def test_captures_headers_only(self):
        stack = TelescopeStack()
        event = capture_row(make_vantage(stack, kind=NetworkKind.TELESCOPE), http_intent())
        assert event.payload == b""
        assert not event.handshake
        assert event.dst_port == 80

    def test_observes_every_port(self):
        assert TelescopeStack().observes(17128)


class TestVantageCapture:
    def test_records_observed_ports_only(self):
        stack = GreyNoiseStack(frozenset({22}))
        capture = VantageCapture(make_vantage(stack))
        asns = np.array([1], dtype=np.int64)
        assert capture.record_batch(one_row_batch(ssh_intent(port=22)), asns) == 1
        assert capture.record_batch(one_row_batch(http_intent(port=80)), asns) == 0
        assert len(capture) == 1
        assert capture.events[0].credentials == (("root", "123456"),)

    def test_vantage_requires_ips(self):
        with pytest.raises(ValueError):
            make_vantage(HoneytrapStack(), ips=())


class TestTelescopeCapture:
    def _capture(self, num_ips=256):
        vantage = make_vantage(
            TelescopeStack(), ips=tuple(range(5000, 5000 + num_ips)),
            kind=NetworkKind.TELESCOPE,
        )
        return TelescopeCapture(vantage)

    def test_source_hit_aggregation(self):
        capture = self._capture()
        sources = np.asarray([11, 12], dtype=np.uint32)
        asns = np.asarray([100, 200])
        capture.record_source_hits(22, sources, asns, np.asarray([5, 0]))
        assert capture.sources_on_port(22) == {11}
        assert capture.port_src_hits[22][11] == 5

    def test_as_counts(self):
        capture = self._capture()
        capture.record_source_hits(
            22, np.asarray([11, 12, 13]), np.asarray([100, 100, 200]), np.asarray([5, 2, 1])
        )
        counts = capture.as_counts(22)
        assert counts[100] == 7 and counts[200] == 1

    def test_destination_sources_accumulate(self):
        capture = self._capture(num_ips=4)
        capture.record_destination_sources(80, np.asarray([1, 0, 2, 0]))
        capture.record_destination_sources(80, np.asarray([1, 1, 0, 0]))
        assert capture.unique_sources_per_destination(80).tolist() == [2, 1, 2, 0]

    def test_destination_misalignment_rejected(self):
        capture = self._capture(num_ips=4)
        with pytest.raises(ValueError):
            capture.record_destination_sources(80, np.asarray([1, 2]))

    def test_totals(self):
        capture = self._capture()
        capture.record_source_hits(22, np.asarray([1]), np.asarray([10]), np.asarray([1]))
        capture.record_source_hits(23, np.asarray([2]), np.asarray([20]), np.asarray([3]))
        assert capture.total_unique_sources() == 2
        assert capture.total_unique_ases() == 2
        assert capture.ports() == [22, 23]
