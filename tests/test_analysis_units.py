"""Unit tests for analysis modules on hand-built synthetic datasets.

Unlike the integration tests (which run on a full simulation), these
construct tiny event sets by hand, so each analysis path can be verified
against values computable on paper.
"""

import numpy as np
import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.geography import (
    build_region_profiles,
    geo_similarity,
    most_different_regions,
)
from repro.analysis.leak import CRAWLER_ASES, leak_report
from repro.analysis.networks import colocated_cloud_pairs
from repro.analysis.summary import vantage_summary
from repro.deployment.fleet import LeakExperiment, LeakGroup
from repro.honeypots.greynoise import GreyNoiseStack
from repro.honeypots.base import VantagePoint
from repro.honeypots.honeytrap import HoneytrapStack
from repro.net.geo import region
from repro.scanners.payloads import http_payload
from repro.sim.clock import WEEK_2021
from repro.sim.events import CapturedEvent, NetworkKind


def gn_vantage(vantage_id, network, region_code, ip):
    return VantagePoint(
        vantage_id=vantage_id, network=network, kind=NetworkKind.CLOUD,
        region_code=region_code, continent=region(region_code).continent.value,
        ips=np.asarray([ip], dtype=np.uint32), stack=GreyNoiseStack(),
    )


def event(vantage, *, src_ip=1, src_asn=100, port=22, ts=1.0,
          payload=b"SSH-2.0-x\r\n", credentials=()):
    return CapturedEvent(
        vantage_id=vantage.vantage_id, network=vantage.network,
        network_kind=vantage.kind, region=vantage.region_code,
        timestamp=ts, src_ip=src_ip, src_asn=src_asn,
        dst_ip=int(vantage.ips[0]), dst_port=port, handshake=True,
        payload=payload, credentials=tuple(credentials),
    )


class TestGeographyUnits:
    @pytest.fixture()
    def two_region_dataset(self):
        """Two AWS regions x two honeypots; AP-SG gets a distinct AS."""
        vantages = [
            gn_vantage("gn-aws-US-CA-0", "aws", "US-CA", 100),
            gn_vantage("gn-aws-US-CA-1", "aws", "US-CA", 101),
            gn_vantage("gn-aws-AP-SG-0", "aws", "AP-SG", 200),
            gn_vantage("gn-aws-AP-SG-1", "aws", "AP-SG", 201),
        ]
        events = []
        for vantage in vantages[:2]:
            events += [event(vantage, src_ip=i, src_asn=100) for i in range(50)]
        for vantage in vantages[2:]:
            events += [event(vantage, src_ip=1000 + i, src_asn=999) for i in range(50)]
        return AnalysisDataset(events, vantages, WEEK_2021)

    def test_profiles_are_median_filtered(self, two_region_dataset):
        profiles = build_region_profiles(two_region_dataset, networks=["aws"],
                                         slices=["ssh22"])
        by_region = {profile.region: profile for profile in profiles}
        assert by_region["US-CA"].counters["ssh22"]["as"][100] == 50
        assert 999 not in by_region["US-CA"].counters["ssh22"]["as"]

    def test_sum_aggregation_pools(self, two_region_dataset):
        profiles = build_region_profiles(two_region_dataset, networks=["aws"],
                                         slices=["ssh22"], aggregate="sum")
        by_region = {profile.region: profile for profile in profiles}
        assert by_region["US-CA"].counters["ssh22"]["as"][100] == 100

    def test_invalid_aggregate(self, two_region_dataset):
        with pytest.raises(ValueError):
            build_region_profiles(two_region_dataset, aggregate="mode")

    def test_most_different_flags_the_odd_region(self, two_region_dataset):
        cells = most_different_regions(two_region_dataset, networks=["aws"])
        ssh_as = next(c for c in cells if c.slice_name == "ssh22" and c.characteristic == "as")
        assert ssh_as.region in ("US-CA", "AP-SG")
        assert ssh_as.avg_phi > 0.5

    def test_geo_similarity_pair_is_different(self, two_region_dataset):
        summaries = geo_similarity(two_region_dataset, networks=["aws"])
        ssh_as = [s for s in summaries
                  if s.slice_name == "ssh22" and s.characteristic == "as"
                  and s.num_pairs > 0]
        assert ssh_as
        assert all(s.num_similar < s.num_pairs for s in ssh_as)

    def test_median_filtering_suppresses_single_honeypot_latch(self):
        """A campaign hammering one honeypot must not dominate the
        region's profile (Section 4.4's point)."""
        vantages = [
            gn_vantage("gn-aws-US-CA-0", "aws", "US-CA", 100),
            gn_vantage("gn-aws-US-CA-1", "aws", "US-CA", 101),
            gn_vantage("gn-aws-US-CA-2", "aws", "US-CA", 102),
        ]
        events = [event(vantages[0], src_ip=5, src_asn=666) for _ in range(500)]
        events += [event(v, src_ip=6, src_asn=100) for v in vantages for _ in range(10)]
        dataset = AnalysisDataset(events, vantages, WEEK_2021)
        profiles = build_region_profiles(dataset, networks=["aws"], slices=["ssh22"])
        counts = profiles[0].counters["ssh22"]["as"]
        assert counts[100] == 10
        assert counts.get(666, 0) == 0  # median across 3 honeypots: (500,0,0) -> 0


class TestColocatedPairs:
    def test_only_na_eu_and_real_overlaps(self):
        vantages = [
            gn_vantage("gn-aws-US-CA-0", "aws", "US-CA", 1),
            gn_vantage("gn-google-US-CA-0", "google", "US-CA", 2),
            gn_vantage("gn-aws-AP-SG-0", "aws", "AP-SG", 3),
            gn_vantage("gn-google-AP-SG-0", "google", "AP-SG", 4),
            gn_vantage("gn-linode-EU-DE-0", "linode", "EU-DE", 5),
        ]
        dataset = AnalysisDataset([], vantages, WEEK_2021)
        pairs = colocated_cloud_pairs(dataset)
        assert ("aws", "google", "US-CA") in pairs
        # APAC co-location is excluded (the paper restricts to NA/EU)...
        assert not any(region_code == "AP-SG" for _a, _b, region_code in pairs)
        # ...and a lone network in a region pairs with nobody.
        assert not any("EU-DE" == r for _a, _b, r in pairs)


class TestLeakUnits:
    def _make(self):
        """Control IP gets 1 event/hr; leaked IP gets 4x plus a spike."""
        control_v = VantagePoint(
            vantage_id="leak-0", network="stanford", kind=NetworkKind.EDU,
            region_code="US-WEST", continent="NA",
            ips=np.asarray([10], dtype=np.uint32),
            stack=HoneytrapStack(interactive_ports=frozenset({22, 23})),
        )
        leaked_v = VantagePoint(
            vantage_id="leak-1", network="stanford", kind=NetworkKind.EDU,
            region_code="US-WEST", continent="NA",
            ips=np.asarray([20], dtype=np.uint32),
            stack=HoneytrapStack(interactive_ports=frozenset({22, 23})),
        )
        experiment = LeakExperiment(
            control_ips=(10,),
            previously_leaked_ips=(),
            leak_groups=(LeakGroup("shodan", "http", 80, (20,)),),
        )
        benign = http_payload("root-get").render()
        events = []
        for hour in range(168):
            events.append(event(control_v, src_ip=1, port=80, ts=hour + 0.5,
                                payload=benign))
            for i in range(4):
                events.append(event(leaked_v, src_ip=50 + i, port=80,
                                    ts=hour + 0.2 + i * 0.1, payload=benign))
        return AnalysisDataset(events, [control_v, leaked_v], WEEK_2021,
                               leak_experiment=experiment), experiment

    def test_fold_computed_per_hour(self):
        dataset, _experiment = self._make()
        rows = leak_report(dataset)
        shodan_all = next(r for r in rows
                          if r.service == "HTTP/80" and r.group == "shodan"
                          and r.traffic == "all")
        assert shodan_all.fold == pytest.approx(4.0, rel=0.05)
        assert shodan_all.stochastically_greater

    def test_crawler_traffic_excluded(self):
        dataset, experiment = self._make()
        crawler_asn = next(iter(CRAWLER_ASES))
        extra = [
            event(dataset.vantages[1], src_ip=999, src_asn=crawler_asn,
                  port=80, ts=hour + 0.9,
                  payload=http_payload("shodan-get").render())
            for hour in range(168)
        ]
        rows = [row for table in dataset.tables.values() for row in table.materialize()]
        boosted = AnalysisDataset(rows + extra, dataset.vantages,
                                  WEEK_2021, leak_experiment=experiment)
        rows = leak_report(boosted)
        shodan_all = next(r for r in rows
                          if r.service == "HTTP/80" and r.group == "shodan"
                          and r.traffic == "all")
        assert shodan_all.fold == pytest.approx(4.0, rel=0.05)

    def test_missing_experiment_raises(self):
        dataset = AnalysisDataset([], [gn_vantage("gn-a-US-CA-0", "aws", "US-CA", 1)],
                                  WEEK_2021)
        with pytest.raises(ValueError):
            leak_report(dataset)


class TestSummaryUnits:
    def test_collection_grouping(self):
        gn = gn_vantage("gn-aws-US-CA-0", "aws", "US-CA", 1)
        ht = VantagePoint(
            vantage_id="ht-stanford-0", network="stanford", kind=NetworkKind.EDU,
            region_code="US-WEST", continent="NA",
            ips=np.asarray([2], dtype=np.uint32), stack=HoneytrapStack(),
        )
        events = [event(gn, src_ip=1, src_asn=10), event(ht, src_ip=2, src_asn=20)]
        dataset = AnalysisDataset(events, [gn, ht], WEEK_2021)
        rows = vantage_summary(dataset)
        collections = {(row.network, row.collection): row for row in rows}
        assert collections[("aws", "GreyNoise")].unique_scan_ips == 1
        assert collections[("stanford", "Honeytrap")].unique_scan_ases == 1
