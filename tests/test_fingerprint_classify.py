"""Tests for LZR-style fingerprinting and maliciousness classification."""

import pytest
from hypothesis import given, strategies as st

from repro.detection.classify import (
    MaliciousnessClassifier,
    Reputation,
    ReputationOracle,
    VETTED_BENIGN_ASES,
    is_malicious_event,
)
from repro.detection.fingerprint import FINGERPRINT_PROTOCOLS, _SIGNATURES, fingerprint
from repro.scanners.payloads import HTTP_CORPUS, LZR_PROTOCOLS, protocol_first_payload
from repro.sim.events import CapturedEvent, NetworkKind


#: Prefixes each signature keys on: every protocol's real first payload,
#: both SMB magics, Redis' inline and RESP commands, every HTTP method and
#: the RTSP-over-OPTIONS form.
_PREFIXES = (
    *(protocol_first_payload(protocol) for protocol in LZR_PROTOCOLS),
    b"\xfeSMB", b"\x00\x00\x00\x45\xffSMB", b"*1\r\n", b"$4\r\n", b"PING", b"info",
    b"GET ", b"POST ", b"HEAD ", b"OPTIONS ", b"PUT ", b"DELETE ", b"PATCH ", b"CONNECT ",
    b"TRACE ", b"OPTIONS rtsp://",
)
_VERSION_TOKENS = (b"HTTP/1.1", b"RTSP/1.0", b"SIP/2.0")


def _first_match(payload):
    """The documented order: the first signature in ``_SIGNATURES`` that matches."""
    return next((name for name, matches in _SIGNATURES if matches(payload)), "unknown")


def make_event(payload=b"", credentials=(), port=80, src_ip=1, src_asn=999):
    return CapturedEvent(
        vantage_id="v", network="aws", network_kind=NetworkKind.CLOUD,
        region="US-CA", timestamp=1.0, src_ip=src_ip, src_asn=src_asn,
        dst_ip=2, dst_port=port, handshake=True,
        payload=payload, credentials=credentials,
    )


class TestFingerprint:
    @pytest.mark.parametrize("protocol", LZR_PROTOCOLS)
    def test_round_trip_all_13_protocols(self, protocol):
        assert fingerprint(protocol_first_payload(protocol)) == protocol

    def test_corpus_is_http(self):
        for entry in HTTP_CORPUS:
            assert fingerprint(entry.render()) == "http", entry.name

    def test_empty_payload_is_none(self):
        assert fingerprint(b"") is None

    def test_garbage_is_unknown(self):
        assert fingerprint(b"\x00\x01\x02garbage") == "unknown"

    def test_http_requires_version_token(self):
        assert fingerprint(b"GET / HTTP/1.1\r\n\r\n") == "http"
        assert fingerprint(b"GET something-else\r\n") == "unknown"

    def test_rtsp_not_confused_with_http(self):
        assert fingerprint(b"OPTIONS rtsp://1.2.3.4/ RTSP/1.0\r\nCSeq: 1\r\n\r\n") == "rtsp"

    def test_sip_not_confused_with_http(self):
        assert fingerprint(b"OPTIONS sip:nm SIP/2.0\r\n\r\n") == "sip"

    def test_telnet_iac_negotiation(self):
        assert fingerprint(b"\xff\xfd\x01") == "telnet"
        assert fingerprint(b"\xff\x01") == "unknown"  # IAC without verb

    def test_tls_version_check(self):
        payload = bytearray(protocol_first_payload("tls"))
        payload[1] = 0x02  # not an SSL3+/TLS record
        assert fingerprint(bytes(payload)) != "tls"

    def test_all_signatures_reachable(self):
        assert set(FINGERPRINT_PROTOCOLS) == set(LZR_PROTOCOLS)

    @given(st.binary(min_size=1, max_size=64))
    def test_total_function(self, blob):
        result = fingerprint(blob)
        assert result == "unknown" or result in FINGERPRINT_PROTOCOLS

    @given(st.one_of(st.binary(min_size=1, max_size=64), st.binary(min_size=48, max_size=48)))
    def test_first_match_on_arbitrary_bytes(self, payload):
        assert fingerprint(payload) == _first_match(payload)

    @pytest.mark.parametrize("prefix", _PREFIXES, ids=lambda prefix: prefix[:10].hex())
    @given(
        cut=st.integers(1, 64),
        noise=st.binary(max_size=8),
        token=st.sampled_from((b"", *_VERSION_TOKENS)),
        later_line=st.booleans(),
        tail=st.binary(max_size=8),
    )
    def test_first_match_on_crafted_prefixes(self, prefix, cut, noise, token, later_line, tail):
        """A signature's prefix cut anywhere, noise, then maybe a version
        token on the first line or a later one."""
        payload = prefix[:cut] + noise + (b"\r\n" if later_line else b"") + token + tail
        assert fingerprint(payload) == _first_match(payload)


class TestMaliciousness:
    def test_login_attempt_is_malicious(self):
        event = make_event(credentials=(("root", "root"),), port=22)
        assert is_malicious_event(event)

    def test_exploit_payload_is_malicious(self):
        from repro.scanners.payloads import http_payload

        event = make_event(payload=http_payload("log4shell").render())
        assert is_malicious_event(event)

    def test_benign_get_is_not(self):
        from repro.scanners.payloads import http_payload

        event = make_event(payload=http_payload("root-get").render())
        assert not is_malicious_event(event)

    def test_telescope_event_never_malicious(self):
        """No payload, no credentials => unclassifiable (Section 8)."""
        event = make_event(payload=b"", credentials=())
        assert not is_malicious_event(event)

    def test_classifier_reusable(self):
        classifier = MaliciousnessClassifier()
        event = make_event(credentials=(("a", "b"),))
        assert classifier.is_malicious(event)
        assert classifier.is_malicious(event)


class TestReputationOracle:
    def test_malicious_overrides_vetted(self):
        oracle = ReputationOracle()
        vetted_asn = next(iter(VETTED_BENIGN_ASES))
        oracle.observe(make_event(credentials=(("a", "b"),), src_ip=5, src_asn=vetted_asn))
        assert oracle.reputation(5) is Reputation.MALICIOUS

    def test_vetted_is_benign(self):
        oracle = ReputationOracle()
        vetted_asn = next(iter(VETTED_BENIGN_ASES))
        oracle.observe(make_event(src_ip=6, src_asn=vetted_asn, payload=b"GET / HTTP/1.1\r\n\r\n"))
        assert oracle.reputation(6) is Reputation.BENIGN

    def test_unvetted_nonmalicious_is_unknown(self):
        oracle = ReputationOracle()
        oracle.observe(make_event(src_ip=7, src_asn=99999, payload=b"GET / HTTP/1.1\r\n\r\n"))
        assert oracle.reputation(7) is Reputation.UNKNOWN

    def test_never_seen_ip_unknown(self):
        assert ReputationOracle().reputation(123) is Reputation.UNKNOWN

    def test_exploit_anywhere_marks_everywhere(self):
        """An IP seen exploiting once is malicious for all later queries."""
        oracle = ReputationOracle()
        oracle.observe(make_event(src_ip=8, credentials=(("root", "root"),), port=22))
        oracle.observe(make_event(src_ip=8, payload=b"GET / HTTP/1.1\r\n\r\n", port=80))
        assert oracle.reputation(8) is Reputation.MALICIOUS

    def test_counts(self):
        oracle = ReputationOracle()
        vetted_asn = next(iter(VETTED_BENIGN_ASES))
        oracle.observe(make_event(src_ip=1, src_asn=vetted_asn, payload=b"GET / HTTP/1.1\r\n\r\n"))
        oracle.observe(make_event(src_ip=2, credentials=(("a", "b"),)))
        oracle.observe(make_event(src_ip=3, src_asn=1234, payload=b"GET / HTTP/1.1\r\n\r\n"))
        counts = oracle.counts()
        assert counts[Reputation.BENIGN] == 1
        assert counts[Reputation.MALICIOUS] == 1
        assert counts[Reputation.UNKNOWN] == 1

    def test_observe_all_chains(self):
        events = [make_event(src_ip=i) for i in range(5)]
        oracle = ReputationOracle().observe_all(events)
        assert len(oracle.counts()) >= 1
