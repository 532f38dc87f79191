"""Tests for scanner specs, port plans, temporal profiles, and populations."""

import numpy as np
import pytest

from repro.net.asn import default_registry
from repro.scanners.base import PortPlan, ScannerSpec, SearchEngineUse, TemporalProfile
from repro.scanners.population import PopulationConfig, build_population
from repro.scanners.strategies import TargetStrategy

RNG = np.random.default_rng(5)


def simple_plan(**kwargs):
    defaults = dict(port=80, protocol="http", rate=1.0,
                    http_payloads=("root-get",), http_weights=(1.0,))
    defaults.update(kwargs)
    return PortPlan(**defaults)


def one_intent(plan, rng=RNG, dst_region=None):
    """One session's intent from 1 to 2 at hour 1, synthesized as a batch."""
    regions = None if dst_region is None else np.array([dst_region], dtype=object)
    batch = plan.build_intent_batch(rng, np.array([1.0]), np.array([1]), np.array([2]),
                                    dst_regions=regions)
    return next(batch.intents())


class TestTemporalProfile:
    def test_uniform_within_window(self):
        times = TemporalProfile().sample_times(RNG, 500, 168.0)
        assert times.min() >= 0 and times.max() < 168

    def test_burst_concentrates(self):
        profile = TemporalProfile(mode="burst", burst_count=1, burst_hours=2.0)
        times = profile.sample_times(RNG, 200, 168.0)
        assert times.max() - times.min() <= 2.0 + 1e-9

    def test_zero_count(self):
        assert TemporalProfile().sample_times(RNG, 0, 168.0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalProfile(mode="sometimes")
        with pytest.raises(ValueError):
            TemporalProfile(burst_count=0)
        with pytest.raises(ValueError):
            TemporalProfile(burst_hours=0)


class TestPortPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            PortPlan(80, "http", -1.0)
        with pytest.raises(ValueError):
            PortPlan(80, "http", 1.0, http_payloads=("a",), http_weights=())
        with pytest.raises(ValueError):
            PortPlan(22, "ssh", 1.0, banner_only_fraction=1.5)
        with pytest.raises(ValueError):
            PortPlan(22, "ssh", 1.0, credential_attempts=(5, 2))

    def test_interactive_requires_dialect_and_protocol(self):
        assert PortPlan(22, "ssh", 1.0, credential_dialect="global-ssh").interactive
        assert not PortPlan(22, "ssh", 1.0).interactive
        assert not PortPlan(80, "http", 1.0, credential_dialect="global-ssh").interactive

    def test_http_intent_payload(self):
        intent = one_intent(simple_plan())
        assert intent.payload.startswith(b"GET / HTTP/1.1")
        assert intent.credentials == ()

    def test_ssh_intent_credentials(self):
        plan = PortPlan(22, "ssh", 1.0, credential_dialect="global-ssh",
                        credential_attempts=(2, 2))
        intent = one_intent(plan)
        assert len(intent.credentials) == 2
        assert intent.payload.startswith(b"SSH-")

    def test_banner_only_sessions_have_no_credentials(self):
        plan = PortPlan(22, "ssh", 1.0, credential_dialect="global-ssh",
                        banner_only_fraction=1.0)
        intent = one_intent(plan)
        assert intent.credentials == ()
        assert intent.payload.startswith(b"SSH-")

    def test_region_dialect_override(self):
        plan = PortPlan(
            23, "telnet", 1.0, credential_dialect="global-telnet",
            credential_attempts=(8, 8),
            region_dialects={"AP-AU": "apac-huawei"},
        )
        rng = np.random.default_rng(0)
        au = one_intent(plan, rng, dst_region="AP-AU")
        usernames = {username for username, _ in (c.as_tuple() for c in au.credentials)}
        huawei = {"mother", "e8ehome", "e8telnet", "telecomadmin", "root", "admin"}
        assert usernames <= huawei

    def test_raw_protocol_intent(self):
        plan = PortPlan(80, "tls", 1.0)
        intent = one_intent(plan)
        assert intent.payload[0] == 0x16

    def test_empty_protocol_sends_nothing(self):
        plan = PortPlan(17128, "", 1.0)
        intent = one_intent(plan)
        assert intent.payload == b"" and intent.credentials == ()


class TestSearchEngineUse:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchEngineUse("google")
        with pytest.raises(ValueError):
            SearchEngineUse("censys", mode="watch")
        with pytest.raises(ValueError):
            SearchEngineUse("censys", fresh_match=1.5)
        with pytest.raises(ValueError):
            SearchEngineUse("censys", spike_sessions=0)

    def test_fresh_beats_stale(self):
        use = SearchEngineUse("censys")
        assert use.selection_probability(10.0, True) > use.selection_probability(-10.0, True)

    def test_match_beats_other(self):
        use = SearchEngineUse("censys")
        assert use.selection_probability(10.0, True) > use.selection_probability(10.0, False)

    def test_old_stale_entries_gain_discoverers(self):
        use = SearchEngineUse("censys")
        recent = use.selection_probability(-24.0, True)
        two_years = use.selection_probability(-2 * 365 * 24.0, True)
        assert two_years > recent * 5

    def test_probabilities_bounded(self):
        use = SearchEngineUse("censys")
        for first_indexed in (-1e6, -24.0, 0.0, 100.0):
            for match in (True, False):
                assert 0.0 <= use.selection_probability(first_indexed, match) <= 1.0


class TestScannerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScannerSpec("s", "f", 1, TargetStrategy(), plans=())
        with pytest.raises(ValueError):
            ScannerSpec("s", "f", 1, TargetStrategy(), plans=(simple_plan(),), num_sources=0)
        with pytest.raises(ValueError):
            ScannerSpec("s", "f", 1, TargetStrategy(),
                        plans=(simple_plan(), simple_plan()))

    def test_plan_lookup(self):
        spec = ScannerSpec("s", "f", 1, TargetStrategy(),
                           plans=(simple_plan(), simple_plan(port=443, protocol="tls",
                                                             http_payloads=(), http_weights=())))
        assert spec.plan_for(443).protocol == "tls"
        assert spec.plan_for(22) is None
        assert spec.ports == (80, 443)


class TestPopulation:
    @pytest.mark.parametrize("year", [2020, 2021, 2022])
    def test_builds_for_all_years(self, year):
        population = build_population(PopulationConfig(year=year, scale=0.1))
        assert len(population) > 50

    def test_invalid_year(self):
        with pytest.raises(ValueError):
            PopulationConfig(year=2019)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            PopulationConfig(scale=0)

    def test_scale_grows_population(self):
        small = build_population(PopulationConfig(scale=0.1))
        large = build_population(PopulationConfig(scale=0.5))
        assert len(large) > len(small)

    def test_scanner_ids_unique(self):
        population = build_population(PopulationConfig(scale=0.3))
        ids = [spec.scanner_id for spec in population]
        assert len(ids) == len(set(ids))

    def test_all_asns_registered(self):
        registry = default_registry()
        for spec in build_population(PopulationConfig(scale=0.3)):
            assert spec.asn in registry, f"{spec.scanner_id} uses unregistered AS{spec.asn}"

    def test_sources_allocatable(self):
        registry = default_registry()
        for spec in build_population(PopulationConfig(scale=0.3)):
            for _ in range(spec.num_sources):
                registry.allocate_source(spec.asn)

    def test_telescope_avoidance_fraction_by_port(self):
        """Ground-truth mixture sanity: SSH campaigns mostly avoid the
        telescope, Telnet/23 campaigns mostly do not (paper Table 8)."""
        from repro.sim.events import NetworkKind

        population = build_population(PopulationConfig(scale=1.0))

        def avoider_fraction(port):
            # Among cloud-targeting source IPs on this port, how many
            # belong to campaigns that never contact the telescope?
            on_port = [
                s for s in population
                if s.plan_for(port) is not None
                and s.strategy.kind_weights.get(NetworkKind.CLOUD, 1.0) >= 0.1
            ]
            total = sum(s.num_sources for s in on_port)
            avoiders = sum(
                s.num_sources for s in on_port
                if s.strategy.kind_weights.get(NetworkKind.TELESCOPE, 1.0) == 0.0
            )
            return avoiders / total

        assert avoider_fraction(22) > 0.5
        assert avoider_fraction(23) < 0.3

    def test_2022_has_more_unexpected_probers(self):
        def unexpected_count(year):
            return sum(
                1 for s in build_population(PopulationConfig(year=year, scale=1.0))
                if s.family.startswith("unexpected-")
            )

        assert unexpected_count(2022) > 1.5 * unexpected_count(2021)

    def test_2020_has_regional_ssh_anomalies(self):
        population = build_population(PopulationConfig(year=2020, scale=1.0))
        anomalies = [s for s in population if s.family.startswith("ssh-anomaly-")]
        assert len(anomalies) >= 6
        population_2021 = build_population(PopulationConfig(year=2021, scale=1.0))
        assert not any(s.family.startswith("ssh-anomaly-") for s in population_2021)

    def test_2021_chinanet_edu_skew_disappears_in_2022(self):
        from repro.sim.events import NetworkKind

        def chinanet_edu_boosted(year):
            population = build_population(PopulationConfig(year=year, scale=1.0))
            return any(
                spec.asn == 4134
                and spec.strategy.kind_weights.get(NetworkKind.EDU, 1.0) > 1.0
                for spec in population
            )

        assert chinanet_edu_boosted(2021)
        assert not chinanet_edu_boosted(2022)
