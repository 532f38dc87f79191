"""IANA port-to-protocol assignments used throughout the analyses.

The Section 6 finding is precisely that scanners do *not* respect these
assignments; the map below is what a payload-less telescope (or a default
honeypot framework) would assume about traffic on a port.
"""

from __future__ import annotations

__all__ = ["IANA_ASSIGNMENTS", "POPULAR_PORTS"]

#: IANA-assigned (or de-facto standard) application protocol per port.
IANA_ASSIGNMENTS: dict[int, str] = {
    21: "ftp",
    22: "ssh",
    23: "telnet",
    25: "smtp",
    80: "http",
    123: "ntp",
    443: "tls",
    445: "smb",
    554: "rtsp",
    1433: "sql",
    1911: "fox",
    2222: "ssh",
    2323: "telnet",
    3306: "sql",
    3389: "rdp",
    5060: "sip",
    5555: "adb",
    6379: "redis",
    7547: "cwmp",
    7574: "oracle",
    8080: "http",
    8443: "tls",
}

#: The popular ports Tables 8/9 iterate over, in the paper's row order.
POPULAR_PORTS: tuple[int, ...] = (23, 2323, 80, 8080, 21, 2222, 25, 7547, 22, 443)
