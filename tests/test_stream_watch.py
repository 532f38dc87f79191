"""The `cloudwatching watch` service end to end: the simulation tap,
the orchestrate-spill attachment (including ``--workers auto``), and
the CLI surface.
"""

from __future__ import annotations

import gc
import json
import shutil
import threading
import time

import pytest

from repro.cli import main
from repro.experiments.context import ExperimentConfig
from repro.runner import orchestrate, resolve_workers
from repro.serve.schema import MAX_TRAILING_HOURS
from repro.stream import WatchOptions, watch_run_dir, watch_simulation
from repro.stream import watch as watch_module

#: Tiny but non-degenerate: every attachment mode sees real traffic.
TINY = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)


class TestWatchSimulation:
    def test_taps_simulation_and_snapshots(self):
        said: list[str] = []
        summary = watch_simulation(
            TINY,
            options=WatchOptions(snapshot_events=10000, max_snapshots=2),
            say=said.append,
        )
        assert summary["events"] > 1000
        assert summary["vantages"] > 5
        assert summary["bus"]["dropped_events"] == 0
        assert summary["bus"]["delivered_events"] == summary["events"]
        # Two periodic snapshots plus the final one.
        assert summary["snapshots"] == 3
        snapshots = [text for text in said if "stream snapshot" in text]
        assert len(snapshots) == 3
        assert "§3.3 cross-vantage comparisons" in snapshots[-1]
        assert "leak alarms" in snapshots[-1]

    def test_final_snapshot_only_by_default_cadence_zero(self):
        said: list[str] = []
        summary = watch_simulation(
            TINY, options=WatchOptions(snapshot_events=0), say=said.append
        )
        assert summary["snapshots"] == 1


class TestWatchRunDir:
    def test_streams_spilled_shards(self, tmp_path):
        out_dir = tmp_path / "run"
        run = orchestrate(TINY, workers="auto", out_dir=out_dir,
                          num_shards=2, quiet=True)
        assert not run.partial

        record = json.loads((out_dir / "run.json").read_text())
        assert record["workers_requested"] == "auto"
        assert isinstance(record["workers"], int) and record["workers"] >= 1
        assert record["workers"] == resolve_workers("auto")

        said: list[str] = []
        summary = watch_run_dir(
            out_dir, options=WatchOptions(chunk_events=512), say=said.append
        )
        assert summary["shards"] == 2
        assert summary["events"] == run.context.result.total_events()
        assert summary["bus"]["dropped_events"] == 0
        assert any("streaming shard-" in line for line in said)
        assert any("stream snapshot" in line for line in said)

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            watch_run_dir(tmp_path / "nope")

    def test_directory_without_completed_shards_raises(self, tmp_path):
        (tmp_path / "shard-0000").mkdir()  # no manifest: still in flight
        with pytest.raises(FileNotFoundError):
            watch_run_dir(tmp_path)


def _cyclic_types(run, names: set[str]) -> set[str]:
    """Types among ``names`` that only the cycle collector could free
    after ``run``."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage} & names
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class TestWatchLeavesNoCycle:
    """A finished watch session is freed by reference counting alone."""

    PIPELINE = {"StreamBus", "StreamAnalyzer", "IncidentPipeline", "SnapshotPrinter"}

    def test_watch_run_dir(self, tmp_path):
        out = tmp_path / "run"
        orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True)
        assert _cyclic_types(
            lambda: watch_run_dir(out, options=WatchOptions(snapshot_events=0),
                                  say=lambda line: None),
            self.PIPELINE,
        ) == set()

    def test_watch_simulation(self):
        assert _cyclic_types(
            lambda: watch_simulation(TINY, options=WatchOptions(snapshot_events=0),
                                     say=lambda line: None),
            self.PIPELINE,
        ) == set()


class TestIncidentStateLeavesNoCycle:
    """Finished detection — its runbook executor, store, audit log and
    incidents — is freed by reference counting alone."""

    STATE = {"RunbookExecutor", "IncidentStore", "AuditLog", "Incident"}

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cycle") / "run"
        orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True)
        return out

    def test_detect_incidents(self, run_dir):
        from repro.incident.pipeline import detect_incidents
        from repro.serve.backends import load_run_dir

        dataset = load_run_dir(run_dir)[1]
        assert _cyclic_types(lambda: detect_incidents(dataset), self.STATE) == set()

    def test_watch_run_dir(self, run_dir):
        assert _cyclic_types(
            lambda: watch_run_dir(run_dir, options=WatchOptions(snapshot_events=0),
                                  say=lambda line: None),
            self.STATE,
        ) == set()


class TestWatchFollowTolerance:
    """Follow mode against shards that are not (yet) fully written."""

    @pytest.fixture(scope="class")
    def pristine_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("follow") / "run"
        run = orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True)
        assert not run.partial
        return out, run.context.result.total_events()

    @staticmethod
    def _copy_with_truncated_shard(pristine, dest):
        """A run dir whose second shard has a manifest but torn banks."""
        shutil.copytree(pristine, dest)
        bank = dest / "shard-0001" / "columns.npz"
        bank.write_bytes(bank.read_bytes()[:200])
        return bank

    def test_in_flight_shard_is_retried_until_readable(self, pristine_run, tmp_path):
        pristine, total = pristine_run
        dest = tmp_path / "run"
        bank = self._copy_with_truncated_shard(pristine, dest)
        whole = (pristine / "shard-0001" / "columns.npz").read_bytes()

        def _repair():
            time.sleep(0.6)
            bank.write_bytes(whole)

        repair = threading.Thread(target=_repair)
        repair.start()
        said: list[str] = []
        try:
            summary = watch_run_dir(
                dest, options=WatchOptions(snapshot_events=0), say=said.append,
                follow_seconds=5.0, poll_seconds=0.1,
            )
        finally:
            repair.join()
        assert summary["shards"] == 2
        assert summary["events"] == total
        assert summary["bus"]["dropped_events"] == 0
        assert any("not readable yet" in line for line in said)
        assert not any("abandoning" in line for line in said)

    def test_permanently_damaged_shard_is_abandoned_not_fatal(
        self, pristine_run, tmp_path
    ):
        pristine, total = pristine_run
        dest = tmp_path / "run"
        self._copy_with_truncated_shard(pristine, dest)
        said: list[str] = []
        summary = watch_run_dir(
            dest, options=WatchOptions(snapshot_events=0), say=said.append,
            follow_seconds=4.0, poll_seconds=0.05,
        )
        assert summary["shards"] == 1
        assert 0 < summary["events"] < total
        assert any("abandoning shard-0001" in line for line in said)
        assert any("not readable yet" in line for line in said)


class TestWatchWithoutRunFile:
    """``orchestrate`` writes ``run.json`` last: a run dir without it
    (one still being written) is watched with the config its shard
    manifests carry."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("no-run-file") / "run"
        assert not orchestrate(TINY, workers=1, out_dir=out, num_shards=2,
                               quiet=True).partial
        return out

    @staticmethod
    def _final_snapshot(run_dir, follow_seconds: float = 0.0, said=None) -> str:
        lines: list[str] = []

        def _say(line: str) -> None:
            lines.append(line)
            if said is not None:
                said(line)

        summary = watch_run_dir(
            run_dir, options=WatchOptions(snapshot_events=0, format="json"),
            say=_say, follow_seconds=follow_seconds, poll_seconds=0.1,
        )
        assert summary["shards"] == 2
        (snapshot,) = [line for line in lines if line.startswith("{")]
        return snapshot

    def test_final_snapshot_equals_the_run_files(self, run_dir, tmp_path):
        bare = tmp_path / "run"
        shutil.copytree(run_dir, bare)
        (bare / "run.json").unlink()
        reference = self._final_snapshot(run_dir)
        assert json.loads(reference)["leak_alarms"]
        assert self._final_snapshot(bare) == reference

    def test_follow_mode_attaches_when_the_first_shard_completes(
        self, run_dir, tmp_path, monkeypatch
    ):
        # The watcher starts on an empty dir.  The first shard is renamed
        # in after the watcher's first poll, the second after the watcher
        # has said it streams the first, and the follow deadline passes
        # once the second has streamed: the order of steps is set by
        # events, not by how fast the host runs them.
        bare = tmp_path / "run"
        bare.mkdir()
        staging = tmp_path / "staging"
        names = ("shard-0000", "shard-0001")
        polled = threading.Event()
        streamed = {name: threading.Event() for name in names}

        class _Clock:
            """The watch module's clock: real time until the last shard
            has streamed, then an hour past it."""

            @staticmethod
            def perf_counter() -> float:
                skip = 3600.0 if streamed[names[-1]].is_set() else 0.0
                return time.perf_counter() + skip

            @staticmethod
            def sleep(seconds: float) -> None:
                polled.set()
                time.sleep(seconds)

        def _note(line: str) -> None:
            for name in names:
                if line.startswith(f"streaming {name} "):
                    streamed[name].set()

        def _complete_shards():
            ready = polled
            for name in names:
                if not ready.wait(timeout=120):
                    return
                shutil.copytree(run_dir / name, staging / name)
                (staging / name).rename(bare / name)
                ready = streamed[name]

        monkeypatch.setattr(watch_module, "time", _Clock)
        writer = threading.Thread(target=_complete_shards)
        writer.start()
        try:
            snapshot = self._final_snapshot(bare, follow_seconds=300.0, said=_note)
        finally:
            monkeypatch.undo()
            writer.join()
        assert snapshot == self._final_snapshot(run_dir)


class TestResolveWorkers:
    def test_auto_derives_from_cpu_count(self):
        assert resolve_workers("auto") >= 1

    def test_explicit_counts_pass_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("three")


class TestWatchCli:
    def test_simulate_mode_smoke(self, capsys):
        code = main([
            "watch", "--simulate", "--scale", "0.05", "--telescope", "4",
            "--seed", "5", "--snapshot-events", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stream snapshot" in out
        assert "watch done:" in out
        assert "0 dropped" in out

    def test_run_dir_mode(self, tmp_path, capsys):
        out_dir = tmp_path / "cli-run"
        assert main([
            "orchestrate", "--out", str(out_dir), "--scale", "0.05",
            "--telescope", "4", "--seed", "5", "--shards", "2",
            "--workers", "auto", "--experiments",
        ]) == 0
        capsys.readouterr()
        assert main([
            "watch", "--run-dir", str(out_dir), "--snapshot-events", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "watch done:" in out

    def test_workers_flag_rejects_junk(self, capsys):
        with pytest.raises(SystemExit):
            main(["orchestrate", "--workers", "zero"])
        assert "auto" in capsys.readouterr().err


#: A tiny simulation, so that a knob the CLI fails to reject costs little.
_SIM = ["--scale", "0.01", "--telescope", "4"]

#: Stands for a run directory under the test's ``tmp_path``.
_TMP_OUT = "<tmp>/run"

#: A tiny orchestrated run that skips analysis and writes under ``tmp_path``.
_ORCHESTRATE = ["orchestrate", "--out", _TMP_OUT, *_SIM, "--workers", "1", "--experiments"]


class TestStreamKnobBounds:
    """A stream, orchestrate or respond knob out of range stops the CLI at
    the argument parser: exit 2 with a message naming the flag, before
    anything starts."""

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["watch", "--simulate", *_SIM, "--sketch-k", "0"], "--sketch-k",
                     id="watch-sketch-k"),
        pytest.param(["serve", "--simulate", *_SIM, "--duration", "1", "--sketch-k", "0"],
                     "--sketch-k", id="serve-sketch-k"),
        pytest.param(["watch", "--simulate", *_SIM, "--top-k", "0"], "--top-k",
                     id="watch-top-k"),
        pytest.param(["watch", "--simulate", *_SIM, "--queue-events", "0"], "--queue-events",
                     id="watch-queue-events"),
        pytest.param(["serve", "--simulate", *_SIM, "--duration", "1", "--queue-events", "0"],
                     "--queue-events", id="serve-queue-events"),
        pytest.param(["watch", "--run-dir", "no-such-run", "--chunk-events", "0"],
                     "--chunk-events", id="watch-chunk-events"),
        pytest.param(["watch", "--simulate", *_SIM, "--snapshot-events", "-5"],
                     "--snapshot-events", id="watch-snapshot-events"),
        pytest.param(["watch", "--simulate", *_SIM, "--max-snapshots", "-1"],
                     "--max-snapshots", id="watch-max-snapshots"),
        pytest.param(["watch", "--simulate", *_SIM, "--trailing-hours", "-3"],
                     "--trailing-hours", id="watch-trailing-hours-below"),
        pytest.param(["watch", "--simulate", *_SIM,
                      "--trailing-hours", str(MAX_TRAILING_HOURS + 1)],
                     "--trailing-hours", id="watch-trailing-hours-above"),
        pytest.param(["watch", "--live", "--port", "0=http", "--duration", "0.2",
                      "--interval", "0"], "--interval", id="watch-interval"),
        pytest.param([*_ORCHESTRATE, "--shards", "-1"], "--shards",
                     id="orchestrate-shards-negative"),
        pytest.param([*_ORCHESTRATE, "--shards", "0"], "--shards", id="orchestrate-shards-0"),
        pytest.param([*_ORCHESTRATE, "--max-retries", "-1"], "--max-retries",
                     id="orchestrate-max-retries"),
        pytest.param(["respond", "--run-dir", "no-such-run", "--quiet-hours", "-3"],
                     "--quiet-hours", id="respond-quiet-hours"),
    ])
    def test_bad_knob_exits_2_naming_the_flag(self, argv, flag, capsys, tmp_path):
        argv = [str(tmp_path / "run") if arg == _TMP_OUT else arg for arg in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
