"""Smoke tests for the benchmark harness (repro.bench)."""

from __future__ import annotations

import json

from repro.bench import append_record, artifact_path, run_bench


def test_append_record_creates_and_appends(tmp_path):
    path = tmp_path / "bench.json"
    append_record({"kind": "first"}, str(path))
    append_record({"kind": "second"}, str(path))
    records = json.loads(path.read_text())
    assert [record["kind"] for record in records] == ["first", "second"]


def test_append_record_recovers_from_corrupt_artifact(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    append_record({"kind": "fresh"}, str(path))
    records = json.loads(path.read_text())
    assert [record["kind"] for record in records] == ["fresh"]


def test_artifact_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("CLOUDWATCHING_BENCH_JSON", raising=False)
    assert artifact_path() == "BENCH_simulation.json"
    monkeypatch.setenv("CLOUDWATCHING_BENCH_JSON", "/tmp/other.json")
    assert artifact_path() == "/tmp/other.json"
    assert artifact_path("explicit.json") == "explicit.json"


def test_run_bench_smoke(tmp_path):
    path = tmp_path / "bench.json"
    record = run_bench(
        scale=0.02,
        telescope_slash24s=2,
        seed=11,
        experiments=["T1"],
        artifact=str(path),
        quiet=True,
    )
    assert record["events"] > 0
    assert set(record["stages"]) == {"deployment", "population", "simulation", "dataset"}
    assert all(value >= 0 for value in record["stages"].values())
    # Simulation throughput is events over the recorded simulation stage.
    assert record["simulation_events_per_s"] == round(
        record["events"] / record["stages"]["simulation"], 1
    )
    assert record["simulation_events_per_s"] > 0
    assert "T1" in record["experiments"]
    records = json.loads(path.read_text())
    assert records[-1] == record
