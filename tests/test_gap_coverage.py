"""Gap-filling tests: paths not exercised by the main suites."""

import numpy as np
import pytest

from repro.analysis.geography import RegionProfile, _grouping_of
from repro.detection.fingerprint import fingerprint
from repro.experiments.base import ExperimentOutput
from repro.reporting.markdown import experiment_to_markdown, write_markdown_report


def profile(region, continent):
    return RegionProfile(network="aws", region=region, continent=continent,
                         counters={}, fractions={})


class TestGeoGrouping:
    def test_us_pair(self):
        assert _grouping_of(profile("US-CA", "NA"), profile("US-OR", "NA")) == "US"

    def test_us_canada_is_cross_region(self):
        assert _grouping_of(profile("US-CA", "NA"), profile("CA-QC", "NA")) == "intercontinental"

    def test_eu_pair(self):
        assert _grouping_of(profile("EU-DE", "EU"), profile("EU-FR", "EU")) == "EU"

    def test_apac_pair(self):
        assert _grouping_of(profile("AP-SG", "AP"), profile("AP-JP", "AP")) == "APAC"

    def test_cross_continent(self):
        assert _grouping_of(profile("US-CA", "NA"), profile("AP-SG", "AP")) == "intercontinental"

    def test_other_continents_unused(self):
        assert _grouping_of(profile("SA-BR", "SA"), profile("SA-BR", "SA")) is None


class TestMarkdownReporting:
    def _output(self, experiment_id="T9", title="Demo table"):
        return ExperimentOutput(experiment_id, title, "| a | b |\n| 1 | 2 |", data=None)

    def test_section_format(self):
        text = experiment_to_markdown(self._output())
        assert text.startswith("## T9: Demo table")
        assert "```text" in text and "| a | b |" in text

    def test_report_toc_links(self, tmp_path):
        outputs = [self._output("T1", "First"), self._output("T2", "Second")]
        path = write_markdown_report(outputs, tmp_path / "r.md", title="My Report")
        text = path.read_text()
        assert text.startswith("# My Report")
        assert "- [T1: First](#t1-first)" in text
        assert "## T2: Second" in text


class TestUdpEngineEnd2End:
    def test_udp_reaches_telescope_and_honeypots(self, small_context):
        """UDP campaigns appear in both capture paths."""
        from repro.net.packets import Transport

        result = small_context.result
        udp_at_honeypots = [e for e in result.events()
                            if e.transport is Transport.UDP]
        assert udp_at_honeypots
        # Telescope records UDP ports too (header-only, no distinction lost).
        assert 5060 in result.telescope.ports() or 123 in result.telescope.ports()

    def test_udp_fingerprintable_at_honeytrap(self, small_context):
        sip = [e for e in small_context.result.events() if e.dst_port == 5060]
        assert sip
        fingerprints = {fingerprint(e.payload) for e in sip if e.payload}
        assert "sip" in fingerprints


class TestCliHoneypotVariants:
    def test_ssh_and_raw_services(self, capsys):
        import asyncio
        import threading
        import time

        from repro.cli import main

        results = {}

        def _serve():
            # note: negative ephemeral keys need --port=KEY=SERVICE syntax so
            # argparse does not read "-1=raw" as an option
            results["code"] = main([
                "honeypots", "--port", "0=ssh", "--port=-1=raw", "--duration", "1.2",
            ])

        thread = threading.Thread(target=_serve)
        thread.start()
        try:
            time.sleep(0.4)
            line = next(l for l in capsys.readouterr().out.splitlines()
                        if "listening on" in l)
            ports = [int(part.split(" ")[0]) for part in line.split("127.0.0.1:")[1:]]

            async def _poke():
                for port, payload in zip(ports, (b"SSH-2.0-Go\r\n", b"\x16\x03\x01rest")):
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(payload)
                    await writer.drain()
                    try:
                        await asyncio.wait_for(reader.read(1024), timeout=1.0)
                    except asyncio.TimeoutError:
                        pass
                    writer.close()
                    await writer.wait_closed()

            asyncio.run(_poke())
        finally:
            thread.join(timeout=10)
        assert results["code"] == 0
        assert "captured 2 sessions" in capsys.readouterr().out


class TestFirewallInDeployment:
    def test_firewalled_greynoise_depresses_measured_maliciousness(self):
        """End-to-end: wrapping the fleet's stacks hides malicious traffic."""
        from repro.analysis.dataset import AnalysisDataset
        from repro.deployment.fleet import build_full_deployment
        from repro.honeypots.base import VantagePoint
        from repro.honeypots.firewall import FirewalledStack
        from repro.scanners.population import PopulationConfig, build_population
        from repro.sim.engine import SimulationConfig, run_simulation
        from repro.sim.rng import RngHub

        population = build_population(PopulationConfig(scale=0.1))

        def measure(drop):
            deployment = build_full_deployment(RngHub(23), num_telescope_slash24s=4,
                                               include_leak_experiment=False)
            if drop:
                deployment.honeypots = [
                    VantagePoint(
                        vantage_id=v.vantage_id, network=v.network, kind=v.kind,
                        region_code=v.region_code, continent=v.continent,
                        ips=v.ips, stack=FirewalledStack(v.stack, drop, seed=23),
                    )
                    for v in deployment.honeypots
                ]
            result = run_simulation(deployment, population, SimulationConfig(seed=23))
            engine = AnalysisDataset.from_simulation(result).contingency()
            malicious, total = engine.fraction("any_all", range(len(engine.vantage_ids)))
            return malicious / max(total, 1)

        assert measure(0.9) < 0.5 * measure(0.0)
