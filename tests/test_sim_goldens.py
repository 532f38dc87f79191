"""Golden digests of one small simulation, pinned bit-for-bit.

The simulation engine's batch path is an exact contract: every RNG draw,
every captured row and every tap notification must stay as it is when
the engine is optimized.  These digests were computed with the
per-session implementation (distinct credentials through numpy's
``choice(replace=False)``, per-call payload rendering, per-candidate
Cowrie hashing, one ``append_view`` per vantage run) and pin:

* the sha256 of every column of every vantage table, and of the
  aggregated telescope capture;
* the same for a run enforced by an :class:`ActiveBlocklist`;
* the ordered ``(vantage, start, stop)`` sequence an append tap sees.

The configuration exercises every capture policy (GreyNoise with and
without Cowrie ports, Honeytrap with and without interactive ports, and
two firewalled vantages, whose runs are captured one ``capture_batch``
call each), search-engine spikes that draw distinct credentials, and
region-specific credential dialects; :func:`test_config_exercises_every_path`
keeps it that way.

The tap digest was re-derived when firewalled vantages moved to batch
capture: it is the per-session sequence with each firewalled
``capture_batch`` call's one-row notifications merged into one
``(vantage, 0, kept)`` notification.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.deployment.fleet import Deployment, build_full_deployment
from repro.honeypots.firewall import FirewalledStack
from repro.honeypots.greynoise import GreyNoiseStack
from repro.honeypots.honeytrap import HoneytrapStack
from repro.incident import ActiveBlocklist
from repro.scanners.credentials import dialect
from repro.scanners.population import PopulationConfig, build_population
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.rng import RngHub

SCALE = 0.05
TELESCOPE_SLASH24S = 4
SEED = 5

NUMERIC = ("timestamps", "src_ip", "src_asn", "dst_ip", "dst_port",
           "transport_code", "handshake")
OBJECT = ("payloads", "credentials", "commands")

GOLDEN_TABLES = {
    "timestamps": "b96b1a6039d32873d1c52e85a7ed6634a955b360b93b2d4294647e9c1d43e2a2",
    "src_ip": "992ddf930604c60ccb8800bab5d6591c01ff288076473d99481695904ea7fa0c",
    "src_asn": "72b300ab18bc961d4e2c9a4fe4ceff19a463866a9edc52fd0ca82b7dbc611a59",
    "dst_ip": "4986ca9bffdf4b923c71d05f41433dc468cffcb2139027d0b226dc9613ba74da",
    "dst_port": "6575b9db41850ca29d89c3058a3fb3fa35b6294844601d0c10403426e51e2dab",
    "transport_code": "92fc140581d8ecacee5f6512560e13d40533de93960b1597614c1e1480abe016",
    "handshake": "d16a5780892a6708c724903c156d95242c7bc74eb9cb2c35312beede2da789c2",
    "payloads": "4b9c24e41d99ab90be0bcb231d4b6419e7d55e652945b8a1edfbf5e89eab035f",
    "credentials": "8c095ce5182d02b0248dce955290b26d0c8c6c432bc0a9c0c4b47db00f9b8595",
    "commands": "dec7b9bd1d5506ec21cb1fbbd2d03bf98d3e7e603148483495b8ca684491f9c1",
    "telescope": "d3bdb7933d17f5fe8fe9170c1e690c6e297979058e174b0116c793e4ba3622ae",
}
GOLDEN_ENFORCED = {
    "timestamps": "3c086cec378fea6d007d81f208b1ad2042c255278423598227f1f03c3807fd1b",
    "src_ip": "b0d010915cfba6e711e090a171ca8c08144fdbad1d366cfc94ad793ef4521b4f",
    "src_asn": "41f35f3acd1cadfb157186b7b0a395d64c9e2789558f114da8bdd328b9cd3edd",
    "dst_ip": "3c4a2ad61ef12b1ac04a37821cef567760b26956fc2c8927c5242f7b7614d9d2",
    "dst_port": "db053a9d18b96f143eed815e529eea7138d5910cdd0ae908451a2e63760308b5",
    "transport_code": "96d11dc3b7a331dadfbbd1ddb360e8947ee383726ae8a2a7cba506f163c5067a",
    "handshake": "d2001cfc9b4594bd77f9284f2bfc00d4c4e678616963b9d28253d5aa9955769a",
    "payloads": "1e4dd451d2da2f9dcf234a45a3cfcdfb57fbf04ba796ba569ee4316e6af9a152",
    "credentials": "2656199f83666eac2fbaf157516398472a1dd4a5e98d683437f2d8a88aab4740",
    "commands": "f5c096e0d773ecef40493f8dbe11fe87d2248e3c062a9a719a463c0046faa726",
    "telescope": "d3bdb7933d17f5fe8fe9170c1e690c6e297979058e174b0116c793e4ba3622ae",
}
GOLDEN_TAP = "86f1add03738b5e13810420d2565cfb48fba12c72c28ad07a178efd54c97f012"
GOLDEN_TAP_CALLS = 18375


def _deployment() -> Deployment:
    """The full fleet, with one GreyNoise and one Honeytrap vantage behind
    a transparent firewall (a stack without a shareable batch policy)."""
    fleet = build_full_deployment(RngHub(1), num_telescope_slash24s=TELESCOPE_SLASH24S)
    wrapped: set[type] = set()
    honeypots = []
    for vantage in fleet.honeypots:
        kind = type(vantage.stack)
        if kind in (GreyNoiseStack, HoneytrapStack) and kind not in wrapped:
            wrapped.add(kind)
            vantage = dataclasses.replace(
                vantage, stack=FirewalledStack(vantage.stack, 0.5, seed=3)
            )
        honeypots.append(vantage)
    return Deployment(
        honeypots=honeypots,
        telescope=fleet.telescope,
        leak_experiment=fleet.leak_experiment,
    )


def _simulate(tap=None, enforcer=None):
    return run_simulation(
        _deployment(),
        build_population(PopulationConfig(year=2021, scale=SCALE)),
        SimulationConfig(seed=SEED),
        tap=tap,
        enforcer=enforcer,
    )


def _column_digests(result) -> dict[str, str]:
    digests = {}
    for name in NUMERIC + OBJECT:
        digest = hashlib.sha256()
        for vantage_id, table in result.tables().items():
            column = getattr(table, name)
            digest.update(f"{vantage_id}:{len(table)}:{column.dtype}".encode())
            if name in NUMERIC:
                digest.update(np.ascontiguousarray(column).tobytes())
            else:
                digest.update(repr(column.tolist()).encode())
        digests[name] = digest.hexdigest()
    telescope = result.telescope
    digest = hashlib.sha256()
    for port in sorted(telescope.port_src_hits):
        digest.update(repr((port, sorted(telescope.port_src_hits[port].items()))).encode())
        digest.update(telescope.unique_sources_per_destination(port).tobytes())
    digest.update(repr(sorted(telescope.asn_of_src.items())).encode())
    digests["telescope"] = digest.hexdigest()
    return digests


@pytest.fixture(scope="module")
def baseline():
    return _simulate()


def _blocklist(baseline) -> ActiveBlocklist:
    """Three busy source ASes blocked from staggered hours, plus the
    busiest source IPs of a fourth from the start."""
    asns = np.concatenate([table.src_asn for table in baseline.tables().values()])
    ips = np.concatenate([table.src_ip for table in baseline.tables().values()])
    values, counts = np.unique(asns, return_counts=True)
    busiest = values[np.argsort(-counts, kind="stable")][:4].tolist()
    fourth = ips[asns == busiest[3]]
    ip_values, ip_counts = np.unique(fourth, return_counts=True)
    top_ips = ip_values[np.argsort(-ip_counts, kind="stable")][:3].tolist()
    return ActiveBlocklist(
        asn_entries=[(busiest[0], 0.0), (busiest[1], 30.0), (busiest[2], 90.0)],
        ip_entries=[(ip, 12.0) for ip in top_ips],
    )


def test_config_exercises_every_path(baseline):
    policies = set()
    firewalled_rows = 0
    for capture in baseline.captures.values():
        if not len(capture):
            continue
        stack = capture.vantage.stack
        if isinstance(stack, FirewalledStack):
            firewalled_rows += len(capture)
            continue
        for port in np.unique(capture.table.dst_port).tolist():
            policies.add(stack.batch_policy_key(int(port)))
    assert firewalled_rows > 0
    assert {("greynoise",), ("honeytrap", False), ("honeytrap", True)} <= policies
    assert any(key[0] == "cowrie" for key in policies)

    # Search-engine spikes try distinct credentials beyond any i.i.d.
    # session's attempt range (at most 8 pairs), without repeats.
    boosted = [
        credentials
        for table in baseline.tables().values()
        for credentials in table.credentials.tolist()
        if len(credentials) > 8
    ]
    assert boosted and all(len(set(pairs)) == len(pairs) for pairs in boosted)

    # Region dialects: the AP-JP override vocabulary reaches AP-JP sensors.
    dvr = set(dialect("apac-dvr").pairs)
    assert any(
        set(credentials) & dvr
        for table in baseline.tables().values()
        if table.region == "AP-JP"
        for credentials in table.credentials.tolist()
    )


def test_vantage_tables_match_goldens(baseline):
    assert _column_digests(baseline) == GOLDEN_TABLES


def test_enforced_run_matches_goldens(baseline):
    enforced = _simulate(enforcer=_blocklist(baseline))
    assert enforced.total_events() < baseline.total_events()
    assert _column_digests(enforced) == GOLDEN_ENFORCED


def test_tap_sequence_matches_golden():
    seen: list[str] = []

    def tap(table, columns, start, stop):
        seen.append(f"{table.vantage_id} {start} {stop}")

    result = _simulate(tap=tap)
    assert len(seen) == GOLDEN_TAP_CALLS
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == GOLDEN_TAP
    # Every captured row was announced exactly once.
    assert sum(int(line.split()[2]) - int(line.split()[1]) for line in seen) == (
        result.total_events()
    )
