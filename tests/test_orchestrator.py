"""Integration tests for the sharded run orchestrator.

The headline guarantee: an N-shard orchestrated run is **bit-identical**
to the single-process simulation at the same seed — same per-vantage
event columns, same telescope aggregate, same experiment rows.  Plus the
operational layer: checkpoint/resume skips completed shards, failures
are retried a bounded number of times, exhaustion degrades to partial
coverage, and the experiment scheduler serves unchanged results from its
content-addressed cache.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.context import ExperimentConfig
from repro.runner import orchestrate, run_experiments
from repro.runner.scheduler import cache_key
from repro.runner.worker import FAILPOINTS_FILE
from tests.conftest import SMALL

#: A tiny configuration for the operational (resume/retry) tests.
TINY = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)


def _assert_results_identical(merged, single) -> None:
    assert merged.total_events() == single.total_events()
    assert set(merged.captures) == set(single.captures)
    for vantage_id, single_capture in single.captures.items():
        merged_table = merged.captures[vantage_id].table
        single_table = single_capture.table
        assert len(merged_table) == len(single_table), vantage_id
        np.testing.assert_array_equal(merged_table.timestamps, single_table.timestamps)
        np.testing.assert_array_equal(merged_table.src_ip, single_table.src_ip)
        np.testing.assert_array_equal(merged_table.src_asn, single_table.src_asn)
        np.testing.assert_array_equal(merged_table.dst_ip, single_table.dst_ip)
        np.testing.assert_array_equal(merged_table.dst_port, single_table.dst_port)
        np.testing.assert_array_equal(merged_table.handshake, single_table.handshake)
        assert list(merged_table.payloads) == list(single_table.payloads), vantage_id
        assert list(merged_table.credentials) == list(single_table.credentials)
        assert list(merged_table.commands) == list(single_table.commands)
    assert merged.telescope.port_src_hits == single.telescope.port_src_hits
    assert merged.telescope.asn_of_src == single.telescope.asn_of_src
    for port in single.telescope.ports():
        np.testing.assert_array_equal(
            merged.telescope.unique_sources_per_destination(port),
            single.telescope.unique_sources_per_destination(port),
        )


class TestShardCountInvariance:
    """Scale 0.25, fixed seed: 1-, 2-, and 4-shard runs == single-process."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_merged_dataset_matches_single_process(
        self, tmp_path, small_context, num_shards
    ):
        run = orchestrate(
            SMALL,
            workers=2,
            out_dir=tmp_path / f"shards-{num_shards}",
            num_shards=num_shards,
            quiet=True,
        )
        assert not run.partial
        assert run.stats.simulated == num_shards
        _assert_results_identical(run.context.result, small_context.result)

        t8_merged = ALL_EXPERIMENTS["T8"](run.context)
        t8_single = ALL_EXPERIMENTS["T8"](small_context)
        assert t8_merged.text == t8_single.text
        assert t8_merged.data == t8_single.data


class TestResume:
    def test_resume_skips_finished_shards(self, tmp_path):
        out_dir = tmp_path / "resume"
        first = orchestrate(TINY, workers=2, out_dir=out_dir, num_shards=4, quiet=True)
        assert first.stats.simulated == 4

        # Simulate a mid-run kill: one shard never wrote its manifest.
        (out_dir / "shard-0002" / "manifest.json").unlink()
        untouched_before = (out_dir / "shard-0000" / "columns.npz").stat().st_mtime_ns

        second = orchestrate(
            TINY, workers=2, out_dir=out_dir, num_shards=4, resume=True, quiet=True
        )
        assert second.stats.skipped == 3
        assert second.stats.simulated == 1
        assert not second.partial
        assert second.context.result.total_events() == first.context.result.total_events()
        # Finished shards were not re-simulated.
        untouched_after = (out_dir / "shard-0000" / "columns.npz").stat().st_mtime_ns
        assert untouched_after == untouched_before

    def test_resume_rejects_stale_configuration(self, tmp_path):
        out_dir = tmp_path / "stale"
        orchestrate(TINY, workers=1, out_dir=out_dir, num_shards=2, quiet=True)
        other = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=6)
        rerun = orchestrate(
            other, workers=1, out_dir=out_dir, num_shards=2, resume=True, quiet=True
        )
        # Different seed → different digest → nothing can be skipped.
        assert rerun.stats.skipped == 0
        assert rerun.stats.simulated == 2


class TestRetriesAndDegradation:
    def test_transient_failure_is_retried(self, tmp_path):
        out_dir = tmp_path / "retry"
        out_dir.mkdir()
        (out_dir / FAILPOINTS_FILE).write_text(json.dumps({"0": 1}))
        run = orchestrate(
            TINY, workers=2, out_dir=out_dir, num_shards=2, max_retries=2, quiet=True
        )
        assert run.stats.retries >= 1
        assert not run.partial
        assert run.stats.simulated == 2

    def test_exhausted_retries_degrade_to_partial_coverage(self, tmp_path):
        out_dir = tmp_path / "degrade"
        out_dir.mkdir()
        (out_dir / FAILPOINTS_FILE).write_text(json.dumps({"1": 99}))
        run = orchestrate(
            TINY, workers=2, out_dir=out_dir, num_shards=2, max_retries=1, quiet=True
        )
        assert run.partial
        assert set(run.failures) == {1}
        assert run.coverage() == 0.5
        # The merged (partial) dataset is still analyzable.
        assert run.context.result.total_events() > 0
        output = ALL_EXPERIMENTS["T8"](run.context)
        assert output.text
        run_record = json.loads((out_dir / "run.json").read_text())
        assert run_record["shards"]["1"]["status"] == "failed"
        assert run_record["coverage"] == 0.5


class TestShardCountBounds:
    @pytest.mark.parametrize("num_shards", [0, -1])
    def test_below_one_is_rejected_before_the_run_dir_exists(self, tmp_path, num_shards):
        """Only ``None`` means "one shard per worker"; 0 and negatives
        are errors, raised before anything is written."""
        out_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="num_shards"):
            orchestrate(TINY, workers=1, out_dir=out_dir, num_shards=num_shards, quiet=True)
        assert not out_dir.exists()


class TestScheduler:
    def test_cache_hits_after_first_run(self, tmp_path):
        out_dir = tmp_path / "sched"
        run = orchestrate(TINY, workers=1, out_dir=out_dir, num_shards=1, quiet=True)
        cache_dir = out_dir / "cache"
        first = run_experiments(
            run.context, run.dataset_digest, ["T8", "M1"], cache_dir=cache_dir
        )
        assert [item.cached for item in first] == [False, False]
        second = run_experiments(
            run.context, run.dataset_digest, ["T8", "M1"], cache_dir=cache_dir
        )
        assert [item.cached for item in second] == [True, True]
        for fresh, cached in zip(first, second):
            assert fresh.output.text == cached.output.text
            assert fresh.output.data == cached.output.data

    def test_cache_keyed_on_dataset_digest(self, tmp_path):
        out_dir = tmp_path / "sched-key"
        run = orchestrate(TINY, workers=1, out_dir=out_dir, num_shards=1, quiet=True)
        cache_dir = out_dir / "cache"
        run_experiments(run.context, run.dataset_digest, ["T8"], cache_dir=cache_dir)
        rerun = run_experiments(
            run.context, "a-different-dataset", ["T8"], cache_dir=cache_dir
        )
        assert [item.cached for item in rerun] == [False]

    def test_full_key_is_verified(self, small_context, tmp_path):
        """An output under another digest's truncated file name is
        recomputed, not served."""
        run_experiments(small_context, "digest-a", ["T8"], cache_dir=tmp_path)
        stored = next(tmp_path.iterdir())
        other = cache_key("digest-b", "T8")
        stored.rename(tmp_path / f"T8-{other[:16]}.pkl")
        rerun = run_experiments(small_context, "digest-b", ["T8"], cache_dir=tmp_path)
        assert [item.cached for item in rerun] == [False]

    def test_unknown_experiment_rejected(self, tmp_path):
        run = orchestrate(
            TINY, workers=1, out_dir=tmp_path / "sched-bad", num_shards=1, quiet=True
        )
        with pytest.raises(ValueError, match="unknown experiments"):
            run_experiments(run.context, run.dataset_digest, ["T99"])
