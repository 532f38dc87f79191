"""Round-trip and verification tests for the on-disk shard format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.honeypots.telescope import TelescopeCapture
from repro.io.shards import (
    SHARD_FORMAT,
    load_shard_tables,
    merge_telescope_shard,
    read_manifest,
    shard_dir_name,
    verify_shard,
    write_shard,
)
from repro.io.table import EventTable
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind


def _sample_table(vantage_id: str = "hp-1") -> EventTable:
    table = EventTable(vantage_id, "aws", NetworkKind.CLOUD, "US-East")
    table.append_event(CapturedEvent(
        vantage_id, "aws", NetworkKind.CLOUD, "US-East",
        1.25, 10, 100, 20, 22, Transport.TCP, True,
        b"SSH-2.0-Go", (("root", "root"), ("admin", "1234")), ("uname -a",),
    ))
    table.append_batch(
        timestamps=np.asarray([2.0, 3.5, 3.5]),
        src_ips=np.asarray([11, 12, 11], dtype=np.int64),
        src_asns=np.asarray([100, 100, 100], dtype=np.int64),
        dst_ips=np.asarray([20, 21, 20], dtype=np.int64),
        dst_port=80,
        transport=Transport.TCP,
        handshake=True,
        payloads=b"GET / HTTP/1.1\r\n\r\n",
    )
    return table


def _manifest_extra(**overrides) -> dict:
    extra = {
        "config": {"year": 2021, "scale": 0.1, "telescope_slash24s": 4, "seed": 5},
        "config_digest": "digest-a",
        "shard_index": 0,
        "num_shards": 2,
        "spec_range": [0, 7],
        "rng_streams": ["scan/s1/22"],
    }
    extra.update(overrides)
    return extra


class TestRoundTrip:
    def test_tables_roundtrip_exactly(self, tmp_path):
        tables = {"hp-1": _sample_table("hp-1"), "hp-2": _sample_table("hp-2")}
        write_shard(tmp_path / shard_dir_name(0), tables, None, _manifest_extra())
        loaded = load_shard_tables(tmp_path / shard_dir_name(0))
        assert set(loaded) == {"hp-1", "hp-2"}
        for vantage_id, table in tables.items():
            restored = loaded[vantage_id]
            assert restored.materialize() == table.materialize()
            np.testing.assert_array_equal(restored.timestamps, table.timestamps)
            assert list(restored.payloads) == list(table.payloads)
            assert list(restored.credentials) == list(table.credentials)
            assert list(restored.commands) == list(table.commands)
            # Object values must come back as the capture-pipeline shapes.
            assert isinstance(restored.payloads[0], bytes)
            assert restored.credentials[0] == (("root", "root"), ("admin", "1234"))
            assert restored.commands[0] == ("uname -a",)

    def test_empty_tables_are_skipped_but_counted(self, tmp_path):
        tables = {
            "hp-1": _sample_table("hp-1"),
            "hp-empty": EventTable("hp-empty", "aws", NetworkKind.CLOUD, "US-East"),
        }
        manifest = write_shard(
            tmp_path / shard_dir_name(1), tables, None, _manifest_extra(shard_index=1)
        )
        assert manifest["events"]["per_vantage"] == {"hp-1": 4}
        assert manifest["events"]["total"] == 4
        loaded = load_shard_tables(tmp_path / shard_dir_name(1))
        assert "hp-empty" not in loaded

    def test_telescope_aggregate_merges_back(self, tmp_path):
        from repro.honeypots.base import VantagePoint
        from repro.honeypots.telescope import TelescopeStack

        vantage = VantagePoint(
            "orion", "orion", NetworkKind.TELESCOPE, "US-EAST", "NA",
            np.arange(8, dtype=np.uint32) + 1, TelescopeStack(),
        )
        telescope = TelescopeCapture(vantage)
        telescope.record_source_hits(
            23, np.asarray([7, 9]), np.asarray([100, 200]), np.asarray([3, 1])
        )
        telescope.record_destination_sources(23, np.ones(8, dtype=np.int64))
        write_shard(tmp_path / shard_dir_name(0), {}, telescope, _manifest_extra())

        merged = TelescopeCapture(vantage)
        merge_telescope_shard(merged, tmp_path / shard_dir_name(0))
        merge_telescope_shard(merged, tmp_path / shard_dir_name(0))  # additive
        assert merged.port_src_hits[23] == {7: 6, 9: 2}
        assert merged.asn_of_src == {7: 100, 9: 200}
        np.testing.assert_array_equal(
            merged.unique_sources_per_destination(23), np.full(8, 2)
        )


class TestVerification:
    def _write(self, tmp_path):
        directory = tmp_path / shard_dir_name(0)
        write_shard(directory, {"hp-1": _sample_table()}, None, _manifest_extra())
        return directory

    def test_complete_shard_verifies(self, tmp_path):
        directory = self._write(tmp_path)
        assert verify_shard(directory, "digest-a", 0, 2, (0, 7))

    def test_missing_manifest_fails(self, tmp_path):
        directory = self._write(tmp_path)
        (directory / "manifest.json").unlink()
        assert read_manifest(directory) is None
        assert not verify_shard(directory, "digest-a", 0, 2, (0, 7))

    def test_wrong_run_plan_fails(self, tmp_path):
        directory = self._write(tmp_path)
        assert not verify_shard(directory, "digest-B", 0, 2, (0, 7))
        assert not verify_shard(directory, "digest-a", 1, 2, (0, 7))
        assert not verify_shard(directory, "digest-a", 0, 4, (0, 7))
        assert not verify_shard(directory, "digest-a", 0, 2, (0, 9))

    def test_corrupted_data_file_fails(self, tmp_path):
        directory = self._write(tmp_path)
        with open(directory / "columns.npz", "ab") as handle:
            handle.write(b"corruption")
        assert not verify_shard(directory, "digest-a", 0, 2, (0, 7))
        # ... unless data checking is explicitly waived.
        assert verify_shard(directory, "digest-a", 0, 2, (0, 7), check_data=False)

    def test_manifest_format_is_stamped(self, tmp_path):
        directory = self._write(tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format"] == SHARD_FORMAT
        assert set(manifest["files"]) == {"columns.npz", "objects.ndjson"}
        assert manifest["rng_streams"] == ["scan/s1/22"]

    def test_unsupported_format_rejected_on_load(self, tmp_path):
        directory = self._write(tmp_path)
        lines = (directory / "objects.ndjson").read_text().splitlines()
        lines[0] = json.dumps({"format": "something-else/9"})
        (directory / "objects.ndjson").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unsupported shard format"):
            load_shard_tables(directory)


#: sha256 of (columns.npz, objects.ndjson) per shard of a 2-shard spill
#: of the simulation below, computed with an earlier writer that walked
#: every table's runs one by one.  Any change to bank order, dtypes,
#: pool order or pool encoding moves them.
SPILL_DIGESTS = {
    0: ("563029d87398235c31be34ffe79718696b2ac91cd932dafa7c5b3b895133e631",
        "27c4d4d3bcdab3a3f1c096b49c95f05b89f8a47bc61c3734588e22ebe15cc77c"),
    1: ("8465a4d22a88a2cf8f585c8cee172c0ef85aa4e3d5f8fd1a7e59d0e8a985ab45",
        "1ad9fbabb897673d92bd229ae7f04ac7408e5d8f926a1a1fcb1cfba96d9825a6"),
}


def test_simulation_spill_bytes_are_pinned(tmp_path):
    from repro.deployment.fleet import build_full_deployment
    from repro.experiments.context import _WINDOWS
    from repro.io.shards import file_sha256
    from repro.runner.plan import plan_shards
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.engine import SimulationConfig, run_simulation
    from repro.sim.rng import RngHub

    deployment = build_full_deployment(RngHub(5), num_telescope_slash24s=4)
    population = build_population(PopulationConfig(year=2021, scale=0.03))
    digests = {}
    for plan in plan_shards(population, 2):
        result = run_simulation(
            deployment, population,
            SimulationConfig(seed=5, window=_WINDOWS[2021]),
            spec_slice=plan.spec_range,
        )
        directory = tmp_path / shard_dir_name(plan.shard_index)
        manifest = write_shard(directory, result.tables(), result.telescope,
                               _manifest_extra(shard_index=plan.shard_index,
                                               spec_range=list(plan.spec_range)))
        digests[plan.shard_index] = (file_sha256(directory / "columns.npz"),
                                     file_sha256(directory / "objects.ndjson"))
        assert manifest["files"] == dict(zip(("columns.npz", "objects.ndjson"),
                                              digests[plan.shard_index]))
    assert digests == SPILL_DIGESTS
