"""Analyses over an orchestrated run == single-process analyses, exactly.

The orchestrator's lazy merge serves each vantage's capture as one table
over the memory-mapped shard spills, and every analysis runs in one pass
over the merged tables, in the calling process.  These tests pin the
contract that matters: at a fixed seed, every analysis produces
*bit-identical* results over a 3-shard run as over an in-process
simulation — including after a partial run is resumed.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.analysis.overlap import scanner_overlap
from repro.analysis.ports import methodology_numbers, protocol_breakdown
from repro.analysis.summary import vantage_summary
from repro.analysis.timeseries import hourly_matrix
from repro.runner import orchestrate
from repro.runner.scheduler import (
    cache_key,
    load_cached_value,
    run_experiments,
    store_cached_value,
)

from tests.conftest import SMALL


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    """One SMALL run split over three shards on two workers (the CLI
    default), merged lazily."""
    out_dir = tmp_path_factory.mktemp("mapreduce-run")
    return orchestrate(SMALL, workers=2, num_shards=3, out_dir=out_dir, quiet=True)


@pytest.fixture(scope="module")
def sharded_dataset(sharded_run):
    assert sharded_run.stats.num_shards == 3
    return sharded_run.context.dataset


class TestShardWiseEqualsSingleProcess:
    def test_vantage_summary(self, dataset, sharded_dataset):
        assert vantage_summary(sharded_dataset) == vantage_summary(dataset)

    def test_scanner_overlap(self, dataset, sharded_dataset):
        assert scanner_overlap(sharded_dataset) == scanner_overlap(dataset)

    def test_methodology_numbers(self, dataset, sharded_dataset):
        assert methodology_numbers(sharded_dataset) == methodology_numbers(dataset)

    def test_protocol_breakdown(self, dataset, sharded_dataset):
        assert protocol_breakdown(sharded_dataset) == protocol_breakdown(dataset)

    def test_hourly_matrix(self, dataset, sharded_dataset):
        vantage_ids = sorted(dataset.tables)
        np.testing.assert_array_equal(
            hourly_matrix(sharded_dataset, vantage_ids),
            hourly_matrix(dataset, vantage_ids),
        )

    def test_merged_columns_are_memory_mapped(self, sharded_dataset):
        """The lazy merge serves shard banks as mmaps, not copies."""
        table = next(iter(sharded_dataset.tables.values()))
        columns, start, stop = table.runs()[0]
        assert isinstance(columns["timestamps"][start:stop], np.memmap)


class TestContingencyShardWise:
    """The contingency engine and the per-source aggregates built over a
    3-shard run must equal the single-process builds bit for bit, and so
    must every analysis drawing from them."""

    def test_engine_matrices_merge_exactly(self, dataset, sharded_dataset):
        single = dataset.contingency()
        sharded = sharded_dataset.contingency()
        assert single.vantage_ids == sharded.vantage_ids
        assert single.counts.keys() == sharded.counts.keys()
        for key in single.counts:
            assert single.values[key[1]] == sharded.values[key[1]]
            # Cell for cell: the same nonzero cells (row bounds and
            # category codes) holding the same counts.
            left, right = single.counts[key], sharded.counts[key]
            assert left.width == right.width
            np.testing.assert_array_equal(left.bounds, right.bounds)
            np.testing.assert_array_equal(left.codes, right.codes)
            np.testing.assert_array_equal(left.counts, right.counts)
        for slice_key in single.events:
            np.testing.assert_array_equal(
                single.events[slice_key], sharded.events[slice_key]
            )
            np.testing.assert_array_equal(
                single.malicious[slice_key], sharded.malicious[slice_key]
            )
        np.testing.assert_array_equal(single.cred_events, sharded.cred_events)

    def test_source_aggregates_merge_exactly(self, dataset, sharded_dataset):
        single = dataset.source_aggregates()
        sharded = sharded_dataset.source_aggregates()
        np.testing.assert_array_equal(single.sources, sharded.sources)
        np.testing.assert_array_equal(single.first_asn, sharded.first_asn)
        np.testing.assert_array_equal(single.event_count, sharded.event_count)
        np.testing.assert_array_equal(single.malicious, sharded.malicious)
        np.testing.assert_array_equal(single.first_order, sharded.first_order)

    def test_neighborhood_report(self, dataset, sharded_dataset):
        from repro.analysis.neighborhoods import neighborhood_report

        assert neighborhood_report(sharded_dataset) == neighborhood_report(dataset)

    def test_geography(self, dataset, sharded_dataset):
        from repro.analysis.geography import geo_similarity, most_different_regions

        assert geo_similarity(sharded_dataset) == geo_similarity(dataset)
        assert most_different_regions(sharded_dataset) == most_different_regions(
            dataset
        )

    def test_networks(self, dataset, sharded_dataset):
        from repro.analysis.networks import network_type_report, telescope_as_report

        assert network_type_report(sharded_dataset) == network_type_report(dataset)
        assert telescope_as_report(sharded_dataset) == telescope_as_report(dataset)

    def test_tags_and_campaigns(self, dataset, sharded_dataset):
        from repro.analysis.campaigns import infer_campaigns
        from repro.analysis.tags import tag_sources

        single_tags = tag_sources(dataset)
        sharded_tags = tag_sources(sharded_dataset)
        assert sharded_tags == single_tags
        assert list(sharded_tags) == list(single_tags)
        assert infer_campaigns(sharded_dataset, min_size=2) == infer_campaigns(
            dataset, min_size=2
        )

    def test_commands(self, dataset, sharded_dataset):
        from repro.analysis.commands import command_summary

        assert command_summary(sharded_dataset) == command_summary(dataset)

    def test_leak(self, dataset, sharded_dataset):
        from repro.analysis.leak import leak_report, unique_credentials_per_group

        assert leak_report(sharded_dataset) == leak_report(dataset)
        assert unique_credentials_per_group(
            sharded_dataset
        ) == unique_credentials_per_group(dataset)


class TestNoAnalysisStartsAProcess:
    def test_analyses_run_in_the_calling_process(
        self, small_context, sharded_run, monkeypatch
    ):
        """With ``os.fork`` raising once the run is merged, the engine,
        the source aggregates, the T1/T3/T8/T11/M1 analyses, the command
        summary, the hourly matrix and X5 run over the orchestrated
        dataset (each through its unmemoized build function), and X5
        equals the in-process run."""
        from repro.analysis.commands import command_summary
        from repro.analysis.contingency_engine import (
            build_engine,
            build_source_aggregates,
        )
        from repro.analysis.leak import _leak_rows, unique_credentials_per_group
        from repro.analysis.ports import _protocol_breakdown
        from repro.experiments.ext_closed_loop import closed_loop_metrics

        expected_x5 = closed_loop_metrics(small_context, verify_resim=False)

        def fork():
            raise AssertionError("an analysis started a process")

        monkeypatch.setattr(os, "fork", fork)
        dataset = sharded_run.context.dataset
        build_engine(dataset)
        build_source_aggregates(dataset)
        vantage_summary(dataset)
        scanner_overlap(dataset)
        methodology_numbers(dataset)
        _protocol_breakdown(dataset, (80, 8080))
        command_summary(dataset)
        _leak_rows(dataset, 0.05)
        unique_credentials_per_group(dataset)
        hourly_matrix(dataset, list(dataset.tables))
        assert closed_loop_metrics(sharded_run.context, verify_resim=False) == expected_x5


class TestResumeWithLazyMerge:
    def test_resumed_run_matches_uninterrupted_run(self, sharded_run, tmp_path):
        """Losing a shard and resuming reproduces the analyses exactly."""
        out_dir = tmp_path / "resumed"
        first = orchestrate(SMALL, workers=1, num_shards=3, out_dir=out_dir, quiet=True)
        assert first.dataset_digest == sharded_run.dataset_digest

        shutil.rmtree(out_dir / "shard-0001")
        resumed = orchestrate(
            SMALL, workers=1, num_shards=3, out_dir=out_dir, resume=True, quiet=True
        )
        assert resumed.stats.skipped == 2 and resumed.stats.simulated == 1
        assert resumed.dataset_digest == sharded_run.dataset_digest

        uninterrupted = sharded_run.context.dataset
        dataset = resumed.context.dataset
        assert vantage_summary(dataset) == vantage_summary(uninterrupted)
        assert scanner_overlap(dataset) == scanner_overlap(uninterrupted)
        assert methodology_numbers(dataset) == methodology_numbers(uninterrupted)
        assert protocol_breakdown(dataset) == protocol_breakdown(uninterrupted)


class TestX3Orchestrated:
    def test_orchestrated_years_match_serial_build_then_cache(
        self, small_context, small_context_2020, small_context_2022,
        tmp_path, monkeypatch,
    ):
        """X3's orchestrated 2020/2022 builds equal the serial builds,
        and a repeat invocation is served from the on-disk metrics cache
        without orchestrating at all."""
        from repro.experiments import ext_temporal_stability as x3
        from repro.experiments.context import _CACHE

        expected = {
            2020: x3._headline_metrics(small_context_2020.dataset),
            2021: x3._headline_metrics(small_context.dataset),
            2022: x3._headline_metrics(small_context_2022.dataset),
        }
        monkeypatch.setenv(x3.RUN_CACHE_ENV, str(tmp_path))
        # Evict the serial 2020/2022 contexts so X3 must orchestrate
        # (monkeypatch restores them afterwards).
        monkeypatch.delitem(_CACHE, small_context_2020.config)
        monkeypatch.delitem(_CACHE, small_context_2022.config)

        output = x3.run(small_context)
        assert output.data == expected
        assert (x3._run_cache_dir(small_context_2020.config) / "run.json").exists()

        # Second pass: no memo, orchestrate forbidden — only the disk
        # cache can satisfy it.
        monkeypatch.delitem(_CACHE, small_context_2020.config)
        monkeypatch.delitem(_CACHE, small_context_2022.config)

        def _forbidden(*args, **kwargs):
            raise AssertionError("orchestrate called despite warm metrics cache")

        monkeypatch.setattr("repro.runner.orchestrator.orchestrate", _forbidden)
        assert x3.run(small_context).data == expected

    def test_cold_x3_orchestrates_inside_a_scheduler_worker(
        self, small_context, small_context_2020, small_context_2022,
        tmp_path, monkeypatch,
    ):
        """A scheduler worker may start a process pool of its own: X3
        with an empty run cache orchestrates its off-year runs inside
        one and returns the in-process result."""
        from repro.experiments import ext_temporal_stability as x3
        from repro.experiments.context import _CACHE

        expected = x3.run(small_context).data
        monkeypatch.setenv(x3.RUN_CACHE_ENV, str(tmp_path))
        monkeypatch.delitem(_CACHE, small_context_2020.config)
        monkeypatch.delitem(_CACHE, small_context_2022.config)

        scheduled = run_experiments(small_context, "digest", ["T8", "X3"], workers=2)
        assert [item.experiment_id for item in scheduled] == ["T8", "X3"]
        assert scheduled[1].output.data == expected
        assert (x3._run_cache_dir(small_context_2020.config) / "run.json").exists()


class TestValueCache:
    def test_roundtrip(self, tmp_path):
        key = cache_key("digest", "X3-metrics", {"year": 2020})
        store_cached_value(tmp_path, "X3-metrics", key, {"ssh": 41.5})
        assert load_cached_value(tmp_path, "X3-metrics", key) == {"ssh": 41.5}

    def test_miss_on_unknown_key(self, tmp_path):
        assert load_cached_value(tmp_path, "X3-metrics", cache_key("d", "e")) is None
        assert load_cached_value(None, "X3-metrics", "anything") is None

    def test_full_key_is_verified(self, tmp_path):
        """A colliding truncated file name cannot serve the wrong value."""
        key = cache_key("digest-a", "X3-metrics")
        store_cached_value(tmp_path, "X3-metrics", key, 1)
        stored = next(tmp_path.iterdir())
        other = cache_key("digest-b", "X3-metrics")
        stored.rename(tmp_path / f"X3-metrics-{other[:16]}.pkl")
        assert load_cached_value(tmp_path, "X3-metrics", other) is None
