"""Tests for credential dialects and the payload corpus."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.scanners.credentials import (
    CredentialDialect,
    DIALECTS,
    dialect,
    sample_credentials_batch,
)
from repro.scanners.payloads import (
    COMMON_PROBE_PATHS,
    HTTP_CORPUS,
    LZR_PROTOCOLS,
    PATH_PROBE_NAMES,
    HttpPayload,
    http_payload,
    protocol_first_payload,
    render_http,
    strip_ephemeral_headers,
)


class TestDialects:
    def test_known_dialects_exist(self):
        for name in ("global-ssh", "global-telnet", "mirai", "apac-huawei", "apac-dvr"):
            assert name in DIALECTS

    def test_unknown_dialect(self):
        with pytest.raises(KeyError):
            dialect("nope")

    def test_probabilities_normalized(self):
        for vocabulary in DIALECTS.values():
            assert abs(vocabulary.probabilities().sum() - 1.0) < 1e-9

    def test_apac_huawei_contains_paper_credentials(self):
        pairs = dialect("apac-huawei").pairs
        usernames = {username for username, _ in pairs}
        assert "mother" in usernames
        assert "e8ehome" in usernames

    def test_dialect_validation(self):
        with pytest.raises(ValueError):
            CredentialDialect("bad", (("a", "b"),), (1.0, 2.0))
        with pytest.raises(ValueError):
            CredentialDialect("bad", (), ())
        with pytest.raises(ValueError):
            CredentialDialect("bad", (("a", "b"),), (0.0,))


def sample_credentials(rng, dialect_name, attempts, distinct=False):
    """One session's login sequence, drawn as a batch of one."""
    return sample_credentials_batch(rng, dialect_name, np.array([attempts]),
                                    distinct=distinct)[0]


class TestSampleCredentials:
    def test_zero_attempts(self):
        rng = np.random.default_rng(0)
        assert sample_credentials(rng, "global-ssh", 0) == ()

    def test_attempt_count(self):
        rng = np.random.default_rng(0)
        creds = sample_credentials(rng, "global-ssh", 5)
        assert len(creds) == 5

    def test_distinct_never_repeats(self):
        rng = np.random.default_rng(0)
        creds = sample_credentials(rng, "mirai", 12, distinct=True)
        assert len(set(creds)) == len(creds)

    def test_distinct_bounded_by_vocabulary(self):
        rng = np.random.default_rng(0)
        creds = sample_credentials(rng, "apac-dvr", 100, distinct=True)
        assert len(creds) == len(dialect("apac-dvr").pairs)

    def test_all_from_dialect(self):
        rng = np.random.default_rng(3)
        vocabulary = set(dialect("mirai").pairs)
        for pair in sample_credentials(rng, "mirai", 50):
            assert pair in vocabulary

    def test_popular_credentials_dominate(self):
        rng = np.random.default_rng(1)
        creds = sample_credentials(rng, "global-telnet", 2000)
        top = max(set(creds), key=list(creds).count)
        assert top == ("root", "root")


class TestProtocolPayloads:
    def test_all_protocols_have_payloads(self):
        for protocol in LZR_PROTOCOLS:
            payload = protocol_first_payload(protocol)
            assert isinstance(payload, bytes) and payload

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            protocol_first_payload("gopher")

    def test_host_substitution(self):
        payload = protocol_first_payload("http", host="203.0.113.9")
        assert b"203.0.113.9" in payload
        assert b"{host}" not in payload

    def test_binary_payloads_ignore_host(self):
        assert protocol_first_payload("tls", host="1.2.3.4") == protocol_first_payload("tls")

    def test_tls_client_hello_structure(self):
        payload = protocol_first_payload("tls")
        assert payload[0] == 0x16 and payload[1:3] == b"\x03\x01"
        length = int.from_bytes(payload[3:5], "big")
        assert len(payload) == 5 + length

    def test_ntp_is_48_bytes_mode3(self):
        payload = protocol_first_payload("ntp")
        assert len(payload) == 48
        assert payload[0] & 0x07 == 3


class TestHttpCorpus:
    def test_names_unique(self):
        names = [entry.name for entry in HTTP_CORPUS]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert http_payload("log4shell").malicious
        assert not http_payload("root-get").malicious

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            http_payload("missing")

    def test_render_inserts_host_and_crlf(self):
        payload = http_payload("root-get").render("198.51.100.77")
        assert b"Host: 198.51.100.77\r\n" in payload
        assert b"\n" not in payload.replace(b"\r\n", b"")

    def test_render_content_length(self):
        payload = http_payload("phpunit-rce").render()
        head, _, body = payload.partition(b"\r\n\r\n")
        declared = int(
            [line for line in head.split(b"\r\n") if line.lower().startswith(b"content-length")][0]
            .split(b":")[1]
        )
        assert declared == len(body)

    def test_corpus_has_both_classes(self):
        assert any(entry.malicious for entry in HTTP_CORPUS)
        assert any(not entry.malicious for entry in HTTP_CORPUS)

    def test_path_probes_are_benign_and_distinct(self):
        assert len(PATH_PROBE_NAMES) == len(COMMON_PROBE_PATHS)
        rendered = {http_payload(name).render() for name in PATH_PROBE_NAMES}
        assert len(rendered) == len(PATH_PROBE_NAMES)
        assert all(not http_payload(name).malicious for name in PATH_PROBE_NAMES)

    def test_probe_paths_unique(self):
        assert len(set(COMMON_PROBE_PATHS)) == len(COMMON_PROBE_PATHS)


class TestStripEphemeralHeaders:
    def test_strips_host_date_content_length(self):
        payload = (
            b"GET / HTTP/1.1\r\nHost: a\r\nDate: now\r\nContent-Length: 3\r\nX-K: v\r\n\r\n"
        )
        stripped = strip_ephemeral_headers(payload)
        assert b"Host:" not in stripped
        assert b"Date:" not in stripped
        assert b"Content-Length:" not in stripped
        assert b"X-K: v" in stripped

    def test_same_template_different_hosts_equal_after_strip(self):
        a = http_payload("log4shell").render("1.1.1.1")
        b = http_payload("log4shell").render("2.2.2.2")
        assert a != b
        assert strip_ephemeral_headers(a) == strip_ephemeral_headers(b)

    def test_binary_payload_passthrough(self):
        payload = protocol_first_payload("tls")
        assert strip_ephemeral_headers(payload) == payload

    def test_empty_passthrough(self):
        assert strip_ephemeral_headers(b"") == b""

    @given(st.binary(min_size=1, max_size=64))
    def test_non_alpha_prefix_passthrough(self, blob):
        if not blob[:1].isalpha():
            assert strip_ephemeral_headers(blob) == blob

    def test_case_insensitive_header_match(self):
        payload = b"GET / HTTP/1.1\r\nhost: a\r\nDATE: x\r\n\r\n"
        stripped = strip_ephemeral_headers(payload)
        assert b"host:" not in stripped and b"DATE:" not in stripped
