"""Unit tests for the network-type comparison module on synthetic data."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.networks import (
    HONEYTRAP_SITES,
    TABLE7_LAYOUT,
    network_type_report,
    telescope_as_report,
)
from repro.honeypots.base import VantagePoint
from repro.honeypots.honeytrap import HoneytrapStack
from repro.honeypots.telescope import TelescopeCapture, TelescopeStack
from repro.sim.clock import WEEK_2021
from repro.sim.events import CapturedEvent, NetworkKind


def ht_vantage(site, index, ip):
    network, region_code = HONEYTRAP_SITES[site]
    kind = NetworkKind.EDU if network in ("stanford", "merit") else NetworkKind.CLOUD
    return VantagePoint(
        vantage_id=f"ht-{site}-{index}", network=network, kind=kind,
        region_code=region_code, continent="NA",
        ips=np.asarray([ip], dtype=np.uint32), stack=HoneytrapStack(),
    )


def event(vantage, *, src_ip=1, src_asn=100, port=22, payload=b"SSH-2.0-x\r\n"):
    return CapturedEvent(
        vantage_id=vantage.vantage_id, network=vantage.network,
        network_kind=vantage.kind, region=vantage.region_code,
        timestamp=1.0, src_ip=src_ip, src_asn=src_asn,
        dst_ip=int(vantage.ips[0]), dst_port=port, handshake=True,
        payload=payload,
    )


@pytest.fixture()
def honeytrap_world():
    """All five Honeytrap sites, same scanners everywhere except Merit."""
    vantages = []
    ip = 1000
    for site in HONEYTRAP_SITES:
        for index in range(3):
            vantages.append(ht_vantage(site, index, ip))
            ip += 1
    events = []
    for vantage in vantages:
        # A common population hits every site...
        for scanner in range(30):
            events.append(event(vantage, src_ip=scanner, src_asn=100 + scanner % 3))
        # ...and Merit additionally gets a site-specific wave.
        if vantage.network == "merit":
            for scanner in range(60):
                events.append(event(vantage, src_ip=5000 + scanner, src_asn=666))
    return AnalysisDataset(events, vantages, WEEK_2021)


class TestNetworkTypeReport:
    def test_layout_complete(self, honeytrap_world):
        cells = network_type_report(honeytrap_world)
        per_comparison = {}
        for cell in cells:
            per_comparison.setdefault(cell.comparison, 0)
            per_comparison[cell.comparison] += 1
        expected_cells = sum(len(chars) for chars in TABLE7_LAYOUT.values())
        assert per_comparison["cloud-edu"] == expected_cells
        assert per_comparison["edu-edu"] == expected_cells

    def test_site_anomaly_detected_in_edu_edu(self, honeytrap_world):
        cells = {(c.comparison, c.slice_name, c.characteristic): c
                 for c in network_type_report(honeytrap_world)}
        anomaly = cells[("edu-edu", "ssh22", "as")]
        assert anomaly.num_different == 1  # Merit's wave differs from Stanford
        assert anomaly.avg_phi > 0.2

    def test_credentials_unmeasurable_on_honeytrap(self, honeytrap_world):
        cells = network_type_report(honeytrap_world)
        credential_cells = [c for c in cells if c.characteristic in ("username", "password")
                            and c.comparison in ("cloud-edu", "edu-edu")]
        assert credential_cells
        assert all(not c.measurable for c in credential_cells)


class TestTelescopeAsReport:
    def test_detects_divergent_telescope_population(self, honeytrap_world):
        telescope_vantage = VantagePoint(
            vantage_id="orion", network="orion", kind=NetworkKind.TELESCOPE,
            region_code="US-EAST", continent="NA",
            ips=np.arange(9000, 9256, dtype=np.uint32), stack=TelescopeStack(),
        )
        capture = TelescopeCapture(telescope_vantage)
        capture.record_source_hits(
            22,
            np.asarray([7000 + i for i in range(40)], dtype=np.uint32),
            np.asarray([4134] * 40),
            np.asarray([5] * 40),
        )
        dataset = AnalysisDataset(
            tables=honeytrap_world.tables, vantages=honeytrap_world.vantages,
            window=WEEK_2021, telescope=capture,
        )
        cells = {(c.comparison, c.slice_name): c for c in telescope_as_report(dataset)}
        ssh = cells[("telescope-edu", "ssh22")]
        assert ssh.num_different == ssh.num_sites  # AS 4134 vs AS 100-102
        assert ssh.avg_phi > 0.5

    def test_requires_telescope(self, honeytrap_world):
        with pytest.raises(ValueError):
            telescope_as_report(honeytrap_world)
