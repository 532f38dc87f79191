"""LZR-style first-payload protocol fingerprinting.

Section 6 uses LZR to identify which application protocol a scanner
actually spoke after the handshake, independent of the destination port's
IANA assignment.  Like LZR, classification is structural — each signature
checks wire-format invariants of the protocol's first client message, not
the corpus that generated it.

Signature order matters: text protocols that embed each other's keywords
(HTTP/RTSP/SIP) are disambiguated by their version tokens before generic
fallbacks run.  :func:`fingerprint` keeps that order in one pass: a
binary signature is tried only on payloads starting with the byte it
requires, and the text signatures share one split of the first line.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["fingerprint", "FINGERPRINT_PROTOCOLS"]

_HTTP_METHODS = (
    b"GET ",
    b"POST ",
    b"HEAD ",
    b"OPTIONS ",
    b"PUT ",
    b"DELETE ",
    b"PATCH ",
    b"CONNECT ",
    b"TRACE ",
)


def _is_http(payload: bytes, first_line: bytes) -> bool:
    return payload.startswith(_HTTP_METHODS) and b"HTTP/" in first_line


def _is_rtsp(payload: bytes, first_line: bytes) -> bool:
    return b"RTSP/1.0" in first_line or payload.startswith(b"OPTIONS rtsp://")


def _is_sip(payload: bytes, first_line: bytes) -> bool:
    return b"SIP/2.0" in first_line


def _is_tls(payload: bytes) -> bool:
    # TLS record: handshake(22), version major 3, then a ClientHello(1).
    return (
        len(payload) >= 6
        and payload[0] == 0x16
        and payload[1] == 0x03
        and payload[5] == 0x01
    )


def _is_ssh(payload: bytes) -> bool:
    return payload.startswith(b"SSH-")


def _is_telnet(payload: bytes) -> bool:
    # Telnet option negotiation: IAC (255) followed by a verb in 251-254.
    return len(payload) >= 2 and payload[0] == 0xFF and 251 <= payload[1] <= 254


def _is_smb(payload: bytes) -> bool:
    if b"\xffSMB" in payload[:12] or b"\xfeSMB" in payload[:12]:
        return True
    return False


def _is_ntp(payload: bytes) -> bool:
    # 48-byte packet whose first byte has mode 3 (client) and version 1-4.
    if len(payload) != 48:
        return False
    mode = payload[0] & 0x07
    version = (payload[0] >> 3) & 0x07
    return mode == 3 and 1 <= version <= 4


def _is_rdp(payload: bytes) -> bool:
    # TPKT header (3, 0) with an X.224 connection request (0xE0).
    return (
        len(payload) >= 7
        and payload[0] == 0x03
        and payload[1] == 0x00
        and payload[5] == 0xE0
    )


def _is_adb(payload: bytes) -> bool:
    return payload.startswith(b"CNXN")


def _is_fox(payload: bytes) -> bool:
    return payload.startswith(b"fox ")


def _is_redis(payload: bytes, first_line: bytes) -> bool:
    if payload.startswith((b"*", b"$")):
        return b"\r\n" in payload
    return first_line.upper() in (b"PING", b"INFO", b"CONFIG GET *", b"QUIT")


def _is_sql(payload: bytes) -> bool:
    # MSSQL TDS pre-login: type 0x12, status 0x01, big-endian length sane.
    if len(payload) >= 8 and payload[0] == 0x12 and payload[1] == 0x01:
        length = int.from_bytes(payload[2:4], "big")
        return 8 <= length <= 4096
    return False


_BINARY_SIGNATURES: tuple[tuple[str, Callable[[bytes], bool]], ...] = (
    ("tls", _is_tls),
    ("ssh", _is_ssh),
    ("telnet", _is_telnet),
    ("smb", _is_smb),
    ("rdp", _is_rdp),
    ("adb", _is_adb),
    ("fox", _is_fox),
    ("sql", _is_sql),
    ("ntp", _is_ntp),
)

#: Text signatures, given the payload and its first line.
_TEXT_SIGNATURES: tuple[tuple[str, Callable[[bytes, bytes], bool]], ...] = (
    ("rtsp", _is_rtsp),
    ("sip", _is_sip),
    ("http", _is_http),
    ("redis", _is_redis),
)


def _on_payload(check: Callable[[bytes, bytes], bool]) -> Callable[[bytes], bool]:
    return lambda payload: check(payload, payload.split(b"\r\n", 1)[0])


#: Ordered (protocol, predicate) table.  Specific binary formats first,
#: then text protocols, then permissive fallbacks.  :func:`fingerprint`
#: returns the first match in this order.
_SIGNATURES: tuple[tuple[str, Callable[[bytes], bool]], ...] = _BINARY_SIGNATURES + tuple(
    (name, _on_payload(check)) for name, check in _TEXT_SIGNATURES
)

FINGERPRINT_PROTOCOLS: tuple[str, ...] = tuple(name for name, _ in _SIGNATURES)

#: The first byte each lead-byte binary signature requires; SMB and NTP
#: can match after any first byte.
_LEAD_BYTES = {
    "tls": 0x16,
    "ssh": ord("S"),
    "telnet": 0xFF,
    "rdp": 0x03,
    "adb": ord("C"),
    "fox": ord("f"),
    "sql": 0x12,
}

#: Per first byte, the binary signatures that can match, in order.
_BINARY_BY_LEAD = tuple(
    tuple(
        (name, predicate)
        for name, predicate in _BINARY_SIGNATURES
        if _LEAD_BYTES.get(name, lead) == lead
    )
    for lead in range(256)
)


def fingerprint(payload: bytes) -> Optional[str]:
    """Identify the protocol of a first payload.

    Returns the protocol name, ``"unknown"`` for non-empty payloads that
    match no signature, or ``None`` for empty payloads (no data to
    fingerprint — e.g. anything a telescope captured).
    """
    if not payload:
        return None
    for name, predicate in _BINARY_BY_LEAD[payload[0]]:
        if predicate(payload):
            return name
    first_line = payload.split(b"\r\n", 1)[0]
    for name, check in _TEXT_SIGNATURES:
        if check(payload, first_line):
            return name
    return "unknown"
