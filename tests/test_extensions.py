"""Tests for the Section 7/8 extension features: UDP capture, firewalls,
honeypot evasion, blocklist efficacy, and campaign inference."""

import numpy as np
import pytest

from repro.analysis.blocklists import (
    blocklist_coverage,
    build_blocklist,
    regional_blocklist_matrix,
)
from repro.analysis.campaigns import campaign_agreement, infer_campaigns
from repro.deployment.fleet import build_full_deployment
from repro.detection.engine import RuleEngine, load_default_rules
from repro.detection.fingerprint import fingerprint
from repro.detection.rules import parse_rule
from repro.honeypots.base import VantagePoint
from repro.honeypots.firewall import FirewalledStack
from repro.honeypots.honeytrap import HoneytrapStack
from repro.io.table import EventTable
from repro.net.packets import Transport
from repro.scanners.base import PortPlan, ScannerSpec
from repro.scanners.payloads import http_payload
from repro.scanners.strategies import TargetStrategy
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.events import CapturedEvent, Credential, IntentBatch, NetworkKind, ScanIntent
from repro.sim.rng import RngHub, stable_hash64
from tests.conftest import capture_row


def make_vantage(stack):
    return VantagePoint(
        vantage_id="v", network="aws", kind=NetworkKind.CLOUD, region_code="US-CA",
        continent="NA", ips=np.asarray([1000], dtype=np.uint32), stack=stack,
    )


class TestUdpCapture:
    def test_udp_event_has_no_handshake_but_keeps_payload(self):
        stack = HoneytrapStack()
        intent = ScanIntent(
            timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=5060,
            transport=Transport.UDP, protocol="sip",
            payload=b"OPTIONS sip:nm@1.2.3.4 SIP/2.0\r\nCSeq: 42 OPTIONS\r\n\r\n",
        )
        event = capture_row(make_vantage(stack), intent)
        assert not event.handshake  # honeypots never respond to UDP
        assert fingerprint(event.payload) == "sip"

    def test_population_emits_udp_traffic(self, small_context):
        udp_events = [e for e in small_context.result.events()
                      if e.transport is Transport.UDP]
        assert udp_events
        assert all(not event.handshake for event in udp_events)
        ports = {event.dst_port for event in udp_events}
        assert {5060, 123} <= ports


class TestFirewalledStack:
    def exploit_intent(self):
        return ScanIntent(
            timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=80, protocol="http",
            payload=http_payload("log4shell").render(),
        )

    def benign_intent(self):
        return ScanIntent(
            timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=80, protocol="http",
            payload=http_payload("root-get").render(),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FirewalledStack(HoneytrapStack(), drop_probability=1.5)

    def test_full_drop_blocks_all_malicious(self):
        stack = FirewalledStack(HoneytrapStack(), drop_probability=1.0)
        assert capture_row(make_vantage(stack), self.exploit_intent()) is None
        assert stack.dropped == 1

    def test_benign_always_passes(self):
        stack = FirewalledStack(HoneytrapStack(), drop_probability=1.0)
        event = capture_row(make_vantage(stack), self.benign_intent())
        assert event is not None

    def test_login_attempts_are_filterable(self):
        stack = FirewalledStack(HoneytrapStack(interactive_ports=frozenset({22})),
                                drop_probability=1.0)
        intent = ScanIntent(
            timestamp=1.0, src_ip=7, dst_ip=1000, dst_port=22, protocol="ssh",
            payload=b"SSH-2.0-x\r\n", credentials=(Credential("root", "root"),),
        )
        assert capture_row(make_vantage(stack), intent) is None

    def test_zero_probability_is_transparent(self):
        stack = FirewalledStack(HoneytrapStack(), drop_probability=0.0)
        assert capture_row(make_vantage(stack), self.exploit_intent()) is not None

    def test_partial_drop_deterministic(self):
        stack = FirewalledStack(HoneytrapStack(), drop_probability=0.5, seed=3)
        intents = [
            ScanIntent(timestamp=float(i), src_ip=i, dst_ip=1000, dst_port=80,
                       protocol="http", payload=http_payload("log4shell").render())
            for i in range(200)
        ]
        survived = [capture_row(make_vantage(stack), i) is not None for i in intents]
        again = FirewalledStack(HoneytrapStack(), drop_probability=0.5, seed=3)
        survived_again = [capture_row(make_vantage(again), i) is not None for i in intents]
        assert survived == survived_again
        assert 0.3 < sum(survived) / len(survived) < 0.7

    @pytest.mark.parametrize("drop", [0.0, 0.5, 1.0])
    def test_mixed_batch_matches_the_per_row_reference(self, drop):
        """Login attempts, an exploit, benign payloads and a payload only
        a port-scoped rule alerts on, in multi-row batches: the kept
        rows and the drop count match a per-row reference, and each
        ``capture_batch`` call appends one table run."""
        port = 8080
        scoped = parse_rule(
            'alert http any any -> any 8080 (msg:"scoped probe"; content:"/scoped-probe"; '
            "classtype:attempted-recon; sid:9001;)"
        )
        rules = RuleEngine(load_default_rules() + [scoped])
        scoped_payload = b"GET /scoped-probe HTTP/1.1\r\n\r\n"
        assert not RuleEngine().is_malicious(scoped_payload, port)
        assert not rules.is_malicious(scoped_payload, 80)
        payload_of = {
            "login": b"SSH-2.0-x\r\n",
            "exploit": http_payload("log4shell").render(),
            "benign": http_payload("root-get").render(),
            "scoped": scoped_payload,
            "bare": b"",
        }
        count = 48
        kinds = [("login", "exploit", "benign", "scoped", "bare", "benign")[row % 6]
                 for row in range(count)]
        payloads = np.empty(count, dtype=object)
        payloads[:] = [payload_of[kind] for kind in kinds]
        credentials = np.empty(count, dtype=object)
        credentials[:] = [(("root", "root"),) if kind == "login" else () for kind in kinds]
        commands = np.empty(count, dtype=object)
        commands.fill(())
        batch = IntentBatch(
            dst_port=port, transport=Transport.TCP, protocol="http",
            timestamps=np.arange(count) * 1.37 + 0.25,
            src_ips=100 + 7 * np.arange(count), dst_ips=1000 + np.arange(count) % 3,
            payloads=payloads, credentials=credentials, commands=commands,
        )
        asns = 64500 + np.arange(count)

        def dropped(row):
            if kinds[row] not in ("login", "exploit", "scoped") or drop == 0.0:
                return False
            draw = stable_hash64(
                3, int(batch.src_ips[row]), int(batch.dst_ips[row]),
                round(float(batch.timestamps[row]), 6),
            ) / float(1 << 64)
            return drop >= 1.0 or draw < drop

        kept = [row for row in range(count) if not dropped(row)]
        if drop == 0.5:
            assert 0 < count - len(kept) < 24  # 24 malicious rows

        stack = FirewalledStack(
            HoneytrapStack(interactive_ports=frozenset({port})), drop, rules, seed=3
        )
        vantage = make_vantage(stack)
        table = EventTable.for_vantage(vantage)
        calls = [(0, 20), (20, count)]
        for start, stop in calls:
            assert stack.capture_batch(
                batch.slice(start, stop), asns[start:stop], table
            ) == sum(start <= row < stop for row in kept)
        assert stack.dropped == count - len(kept)
        assert table.materialize() == [
            CapturedEvent(
                vantage_id="v", network="aws", network_kind=NetworkKind.CLOUD,
                region="US-CA", timestamp=float(batch.timestamps[row]),
                src_ip=int(batch.src_ips[row]), src_asn=int(asns[row]),
                dst_ip=int(batch.dst_ips[row]), dst_port=port, handshake=True,
                payload=payloads[row], credentials=credentials[row],
            )
            for row in kept
        ]
        assert len(table.runs()) == len(calls)

    def test_observes_delegates(self):
        from repro.honeypots.greynoise import GreyNoiseStack

        stack = FirewalledStack(GreyNoiseStack(frozenset({22})), 0.5)
        assert stack.observes(22) and not stack.observes(80)


class TestHoneypotEvasion:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScannerSpec("s", "f", 4134, TargetStrategy(),
                        plans=(PortPlan(22, "ssh", 1.0),), honeypot_evasion=1.5)

    def test_evasive_scanner_underrepresented_at_honeypots(self):
        deployment = build_full_deployment(RngHub(9), num_telescope_slash24s=4)
        overt = ScannerSpec(
            "overt", "t", 4134, TargetStrategy(),
            plans=(PortPlan(22, "ssh", 2.0, credential_dialect="global-ssh"),),
            num_sources=4,
        )
        evasive = ScannerSpec(
            "evasive", "t", 56046, TargetStrategy(),
            plans=(PortPlan(22, "ssh", 2.0, credential_dialect="global-ssh"),),
            num_sources=4, honeypot_evasion=0.95,
        )
        result = run_simulation(deployment, [overt, evasive], SimulationConfig(seed=2))
        honeypot_counts = {4134: 0, 56046: 0}
        for event in result.events():
            honeypot_counts[event.src_asn] += 1
        telescope_counts = result.telescope.as_counts(22)
        # At honeypots the evasive campaign nearly vanishes...
        assert honeypot_counts[56046] < 0.2 * honeypot_counts[4134]
        # ...but the telescope still sees both at comparable volume.
        assert telescope_counts[56046] > 0.5 * telescope_counts[4134]

    def test_population_contains_evasive_family(self, small_context):
        families = {spec.family for spec in small_context.result.population}
        assert "evasive-ssh" in families


class TestBlocklists:
    def test_build_blocklist_is_malicious_only(self, dataset):
        vantages = dataset.vantages_in(network="aws")[:40]
        blocklist = build_blocklist(dataset, vantages)
        oracle = dataset.reputation_oracle()
        from repro.detection.classify import Reputation

        for src_ip in list(blocklist)[:50]:
            assert oracle.reputation(src_ip) is Reputation.MALICIOUS

    def test_training_cutoff_respected(self, dataset):
        vantages = dataset.vantages_in(network="aws")[:40]
        early = build_blocklist(dataset, vantages, until_hour=24.0)
        full = build_blocklist(dataset, vantages)
        assert early <= full
        assert len(early) < len(full)

    def test_self_coverage_high(self, dataset):
        vantages = dataset.vantages_in(network="google")[:40]
        blocklist = build_blocklist(dataset, vantages, until_hour=84.0)
        coverage = blocklist_coverage(dataset, blocklist, vantages, from_hour=84.0)
        assert coverage.event_coverage_pct > 60.0

    def test_empty_blocklist_blocks_nothing(self, dataset):
        vantages = dataset.vantages_in(network="aws")[:10]
        coverage = blocklist_coverage(dataset, set(), vantages)
        assert coverage.blocked_events == 0

    def test_regional_matrix_shape(self, dataset):
        cells = regional_blocklist_matrix(dataset)
        assert len(cells) == 9
        pairs = {(cell.source_group, cell.target_group) for cell in cells}
        assert ("AP", "AP") in pairs and ("NA", "EU") in pairs

    def test_apac_export_penalty(self, dataset):
        """The paper's prediction: blocklists travel poorly into APAC."""
        cells = {(c.source_group, c.target_group): c.coverage
                 for c in regional_blocklist_matrix(dataset)}
        ap_home = cells[("AP", "AP")].event_coverage_pct
        eu_into_ap = cells[("EU", "AP")].event_coverage_pct
        assert ap_home > eu_into_ap


class TestCampaignInference:
    def test_infer_and_purity(self, small_context):
        dataset = small_context.dataset
        campaigns = infer_campaigns(dataset, min_size=2)
        assert campaigns
        assert campaigns[0].size >= campaigns[-1].size  # sorted by size
        truth = {
            int(ip): scanner_id
            for scanner_id, ips in small_context.result.source_ips.items()
            for ip in ips
        }
        assert campaign_agreement(campaigns, truth) > 0.9

    def test_campaign_fields(self, dataset):
        campaigns = infer_campaigns(dataset, min_size=3)
        largest = campaigns[0]
        assert largest.ports and largest.asns
        assert largest.event_count >= largest.size

    def test_min_size_filter(self, dataset):
        all_campaigns = infer_campaigns(dataset, min_size=1)
        big_campaigns = infer_campaigns(dataset, min_size=5)
        assert len(big_campaigns) < len(all_campaigns)
        assert all(campaign.size >= 5 for campaign in big_campaigns)

    def test_agreement_of_empty(self):
        assert campaign_agreement([], {}) == 1.0
