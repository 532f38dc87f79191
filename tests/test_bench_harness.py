"""Smoke tests for the benchmark harness (repro.bench) and its one
command, ``cloudwatching bench``."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import append_record, artifact_path, run_bench
from repro.cli import _build_parser, main

RUN_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "run_bench.py"


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


def test_cli_bench_times_only_the_requested_experiments(tmp_path):
    path = tmp_path / "bench.json"
    code = main(["bench", "--scale", "0.02", "--telescope", "2", "--seed", "11",
                 "--experiments", "T1", "--output", str(path)])
    assert code == 0
    records = json.loads(path.read_text())
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "bench"
    assert list(record["experiments"]) == ["T1"]
    assert "orchestrate" not in record


def test_run_bench_script_goes_through_the_cli_contract():
    completed = subprocess.run(
        [sys.executable, str(RUN_BENCH), "--scale", "-1"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 2
    assert "error: scale: must be in (0, 100]" in completed.stderr


def test_bench_accepts_exactly_its_options():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {option for action in subparsers.choices["bench"]._actions
               for option in action.option_strings}
    assert options == {
        "-h", "--help", "--scale", "--telescope", "--seed", "--year",
        "--experiments", "--serve", "--connections", "--duration", "--output",
    }


@pytest.mark.parametrize("flag", [
    "--stream", "--incident", "--orchestrate-sweep", "--orchestrate-workers",
])
def test_bench_kinds_perfbench_measures_do_not_parse(flag, tmp_path, capsys):
    # Small and pointed at tmp_path, should the flag ever parse again.
    with pytest.raises(SystemExit) as info:
        main(["bench", flag, "--scale", "0.02", "--telescope", "2",
              "--experiments", "--output", str(tmp_path / "bench.json")])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
