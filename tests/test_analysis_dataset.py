"""Tests for the AnalysisDataset query layer (on the shared small sim)."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.dataset import SLICES, AnalysisDataset, TrafficSlice
from repro.detection.fingerprint import fingerprint
from repro.sim.events import NetworkKind


def _all_rows(engine):
    return list(range(len(engine.vantage_ids)))


class TestConstruction:
    def test_from_simulation(self, small_context):
        dataset = AnalysisDataset.from_simulation(small_context.result)
        total = sum(len(table) for table in dataset.tables.values())
        assert total == small_context.result.total_events()
        assert dataset.telescope is not None
        assert dataset.leak_experiment is not None

    def test_events_grouped_by_vantage(self, dataset):
        """Row events become one table per vantage: vantages in
        first-sighting order, each vantage's rows in input order."""
        populated = [vid for vid, table in dataset.tables.items() if len(table)][:3]
        rows = {vid: dataset.tables[vid].materialize()[:20] for vid in populated}
        interleaved = [
            row for group in zip(*(rows[vid] for vid in reversed(populated)))
            for row in group
        ]
        grouped = AnalysisDataset(events=interleaved, vantages=dataset.vantages)
        assert list(grouped.tables) == list(reversed(populated))
        for vid in populated:
            assert grouped.tables[vid].materialize() == rows[vid][: len(interleaved) // 3]


class TestSlices:
    def test_slice_definitions(self):
        assert SLICES["ssh22"].port == 22
        assert SLICES["http_all"].port is None
        assert SLICES["http_all"].protocol == "http"

    def test_ssh22_slice_is_port_based(self, dataset):
        engine = dataset.contingency()
        port22 = sum(int((table.dst_port == 22).sum()) for table in dataset.tables.values())
        assert port22 > 0
        assert engine.events["ssh22"].sum() == port22

    def test_http80_slice_fingerprint_filtered(self, dataset):
        engine = dataset.contingency()
        assert engine.events["http80"].sum() > 0
        assert (engine.events["http80"] <= engine.events["port80"]).all()
        assert (engine.events["http80"] <= engine.events["http_all"]).all()

    def test_http_all_spans_ports(self, dataset):
        engine = dataset.contingency()
        # HTTP spoken off port 80 too.
        assert engine.events["http_all"].sum() > engine.events["http80"].sum()

    def test_unexpected_protocols_excluded_from_http_slice(self, dataset):
        engine = dataset.contingency()
        # the ~15% non-HTTP traffic on port 80
        assert engine.events["http80"].sum() < engine.events["port80"].sum()

    def test_custom_slice(self, dataset):
        tls80 = TrafficSlice("TLS/80", port=80, protocol="tls")
        assert tls80.label() == "TLS/80"
        port80_payloads = {
            payload
            for table in dataset.tables.values()
            for payload in set(table.payloads[table.dst_port == tls80.port].tolist())
        }
        assert any(fingerprint(payload) == tls80.protocol for payload in port80_payloads)


class TestCounters:
    def test_as_counter(self, dataset):
        engine = dataset.contingency()
        counts = engine.counter("any_all", "as", _all_rows(engine))
        assert sum(counts.values()) == sum(len(table) for table in dataset.tables.values())
        assert all(isinstance(asn, int) for asn in counts)

    def test_username_password_counters(self, dataset):
        engine = dataset.contingency()
        usernames = engine.counter("ssh22", "username", _all_rows(engine))
        passwords = engine.counter("ssh22", "password", _all_rows(engine))
        assert usernames and passwords
        assert "root" in usernames
        assert sum(usernames.values()) == sum(passwords.values())

    def test_payload_counter_strips_host(self, dataset):
        engine = dataset.contingency()
        counts = engine.counter("http80", "payload", _all_rows(engine))
        assert counts
        assert all(b"Host:" not in payload for payload in counts)

    def test_characteristic_dispatch(self, dataset):
        engine = dataset.contingency()
        vantage_id = next(vid for vid, table in dataset.tables.items() if len(table))
        row = engine.row(vantage_id)
        table = dataset.tables[vantage_id]
        assert engine.counter("any_all", "as", [row]) == Counter(table.src_asn.tolist())
        with pytest.raises(KeyError):
            engine.counter("any_all", "zodiac", [row])

    def test_malicious_fraction_bounds(self, dataset):
        engine = dataset.contingency()
        malicious, total = engine.fraction("any_all", _all_rows(engine))
        assert 0 < malicious <= total == sum(len(t) for t in dataset.tables.values())


class TestGrouping:
    def test_neighborhoods(self, dataset):
        neighborhoods = dataset.neighborhoods(networks=["aws"])
        assert ("aws", "AP-SG") in neighborhoods
        assert all(len(group) >= 1 for group in neighborhoods.values())

    def test_vantages_in_filters(self, dataset):
        aws_sg = dataset.vantages_in(network="aws", region="AP-SG")
        assert len(aws_sg) == 4
        edu = dataset.vantages_in(kind=NetworkKind.EDU)
        assert all(v.kind is NetworkKind.EDU for v in edu)

    def test_events_for_group(self, dataset):
        engine = dataset.contingency()
        group = dataset.vantages_in(network="aws", region="AP-SG")
        rows = [engine.row(v.vantage_id) for v in group if engine.row(v.vantage_id) is not None]
        expected = sum(len(dataset.tables.get(v.vantage_id, ())) for v in group)
        assert expected > 0
        assert engine.events["any_all"][np.asarray(rows)].sum() == expected


class TestSourceSets:
    def test_sources_on_port(self, dataset):
        cloud = dataset.sources_on_port(22, NetworkKind.CLOUD)
        edu = dataset.sources_on_port(22, NetworkKind.EDU)
        assert cloud and edu

    def test_malicious_subset(self, dataset):
        all_sources = dataset.sources_on_port(22, NetworkKind.CLOUD)
        malicious = dataset.malicious_sources_on_port(22, NetworkKind.CLOUD)
        assert malicious <= all_sources
        assert malicious  # SSH brute-forcers exist

    def test_reputation_oracle_cached(self, dataset):
        assert dataset.reputation_oracle() is dataset.reputation_oracle()
