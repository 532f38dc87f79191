"""Tests for actor tagging and the Section 8 operator report."""

import numpy as np
import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.recommendations import operator_report
from repro.analysis.tags import TAG_RULES, tag_distribution, tag_sources
from repro.honeypots.base import VantagePoint
from repro.honeypots.honeytrap import HoneytrapStack
from repro.scanners.payloads import http_payload, protocol_first_payload
from repro.sim.clock import WEEK_2021
from repro.sim.events import CapturedEvent, NetworkKind


def vantage(ip=1000):
    return VantagePoint(
        vantage_id="v", network="aws", kind=NetworkKind.CLOUD, region_code="US-CA",
        continent="NA", ips=np.asarray([ip], dtype=np.uint32),
        stack=HoneytrapStack(interactive_ports=frozenset({22, 23})),
    )


def event(src_ip, port, payload=b"", credentials=()):
    return CapturedEvent(
        vantage_id="v", network="aws", network_kind=NetworkKind.CLOUD,
        region="US-CA", timestamp=1.0, src_ip=src_ip, src_asn=4134,
        dst_ip=1000, dst_port=port, handshake=True,
        payload=payload, credentials=tuple(credentials),
    )


class TestTagRules:
    def _tags_for(self, events):
        dataset = AnalysisDataset(events, [vantage()], WEEK_2021)
        return tag_sources(dataset)

    def test_mirai_credentials_tagged(self):
        tags = self._tags_for([
            event(1, 23, payload=protocol_first_payload("telnet"),
                  credentials=[("root", "xc3511"), ("root", "vizxv")]),
        ])
        assert "mirai-like" in tags[1]
        assert "telnet-bruteforcer" in tags[1]

    def test_huawei_variant_tagged(self):
        tags = self._tags_for([
            event(2, 23, payload=protocol_first_payload("telnet"),
                  credentials=[("mother", "fucker"), ("e8ehome", "e8ehome")]),
        ])
        assert "huawei-apac-variant" in tags[2]

    def test_benign_crawler_tagged(self):
        tags = self._tags_for([
            event(3, 80, payload=http_payload("root-get").render()),
        ])
        assert tags[3] == frozenset({"web-crawler"})

    def test_web_exploiter_tagged(self):
        tags = self._tags_for([
            event(4, 80, payload=http_payload("log4shell").render()),
        ])
        assert "web-exploiter" in tags[4]
        assert "web-crawler" not in tags[4]  # malicious sources are not crawlers

    def test_unexpected_protocol_prober(self):
        tags = self._tags_for([
            event(5, 80, payload=protocol_first_payload("tls")),
        ])
        assert "unexpected-protocol-prober" in tags[5]

    def test_wide_scanner(self):
        events = [event(6, port, payload=http_payload("root-get").render())
                  for port in (21, 25, 80, 443, 8080)]
        tags = self._tags_for(events)
        assert "wide-scanner" in tags[6]

    def test_untaggable_source_empty(self):
        tags = self._tags_for([event(7, 12345, payload=b"")])
        assert tags[7] == frozenset()

    def test_rule_names_unique(self):
        assert len(TAG_RULES) == len(set(TAG_RULES))


class TestTagDistribution:
    def test_counts(self):
        distribution = tag_distribution({
            1: frozenset({"a", "b"}),
            2: frozenset({"a"}),
            3: frozenset(),
        })
        assert distribution == {"a": 2, "b": 1}

    def test_sorted_by_prevalence(self):
        distribution = tag_distribution({
            1: frozenset({"rare"}),
            2: frozenset({"common"}),
            3: frozenset({"common"}),
        })
        assert list(distribution) == ["common", "rare"]


class TestOperatorReport:
    def test_full_report_on_simulation(self, dataset):
        recommendations = operator_report(dataset)
        assert [rec.number for rec in recommendations] == [1, 2, 3, 4, 5]
        by_number = {rec.number: rec for rec in recommendations}
        assert by_number[1].value > 60.0  # telescope blindness to SSH attackers
        assert by_number[2].value > 1.5  # indexed services attract more traffic
        assert 5.0 < by_number[3].value < 40.0  # unexpected protocol share
        assert by_number[5].value > 0.0  # APAC adds diversity over US

    def test_renders(self, dataset):
        for recommendation in operator_report(dataset):
            assert recommendation.title in str(recommendation)

    def test_tags_on_simulation(self, dataset):
        distribution = tag_distribution(tag_sources(dataset))
        assert "mirai-like" in distribution
        assert "huawei-apac-variant" in distribution
        assert "unexpected-protocol-prober" in distribution
