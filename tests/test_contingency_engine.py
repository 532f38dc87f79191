"""The columnar contingency engine and the analyses built on it.

The engine pre-aggregates per-(vantage × characteristic) count tables
and per-source behavior tables in one pass over the event tables; every
pairwise-comparison analysis slices those tables.  Their values are
pinned in ``tests/test_analysis_goldens.py``.  Here:

* the parity classes check that a dataset rebuilt from rows — the
  shared fixture's events written to NDJSON and read back, grouped per
  vantage into tables — gives *exactly* the outputs of the simulator's
  own tables: same values, same float bits, same dict ordering;
* :class:`TestMatrixInternals` checks the count tables against an
  independent per-event reference computed from the materialized rows
  with the row-level definitions (``fingerprint``,
  ``strip_ephemeral_headers``, ``MaliciousnessClassifier.is_malicious``);
* :class:`TestCountTablesAgainstDenseReference` checks every query of
  the row-compressed store against dense vantage × category matrices
  counted by brute force from every row, and bounds the store's bytes
  by its nonzero cells.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
import pytest

from repro.analysis.campaigns import infer_campaigns
from repro.analysis.commands import command_summary
from repro.analysis.contingency_engine import (
    CHARACTERISTICS,
    ENGINE_SLICES,
    POPULAR_PORTS,
)
from repro.analysis.geography import (
    build_region_profiles,
    geo_similarity,
    most_different_regions,
)
from repro.analysis.leak import leak_report, unique_credentials_per_group
from repro.analysis.neighborhoods import neighborhood_report
from repro.analysis.networks import network_type_report, telescope_as_report
from repro.analysis.tags import tag_distribution, tag_sources
from repro.detection.fingerprint import fingerprint
from repro.scanners.payloads import strip_ephemeral_headers
from tests.test_analysis_goldens import _ndjson_twin, digest


@pytest.fixture(scope="module")
def row_dataset(small_context, tmp_path_factory):
    """The shared fixture's rows through NDJSON, rebuilt as a dataset."""
    return _ndjson_twin(small_context, tmp_path_factory.mktemp("twin"))


@pytest.fixture(scope="module")
def dataset_2020(small_context_2020):
    return small_context_2020.dataset


@pytest.fixture(scope="module")
def row_dataset_2020(small_context_2020, tmp_path_factory):
    return _ndjson_twin(small_context_2020, tmp_path_factory.mktemp("twin"))


class TestEngineAvailability:
    def test_table_backed_dataset_builds_and_caches_engine(self, dataset):
        engine = dataset.contingency()
        assert engine is not None
        assert dataset.contingency() is engine  # cached, not rebuilt
        aggregates = dataset.source_aggregates()
        assert aggregates is not None
        assert dataset.source_aggregates() is aggregates

    def test_row_events_become_tables(self, dataset, row_dataset):
        """Rows are grouped per vantage, in the simulator's vantage order."""
        populated = {vid: len(table) for vid, table in dataset.tables.items() if len(table)}
        assert {vid: len(table) for vid, table in row_dataset.tables.items()} == populated
        assert list(row_dataset.tables) == list(populated)
        assert row_dataset.contingency() is not None
        assert row_dataset.source_aggregates() is not None


class TestNeighborhoodParity:
    def test_default_report(self, dataset, row_dataset):
        assert neighborhood_report(dataset) == neighborhood_report(row_dataset)

    @pytest.mark.parametrize("kwargs", [
        {"k": 1},
        {"k": 5},
        {"alpha": 0.01},
        {"bonferroni": False},
        {"max_honeypots_per_neighborhood": 2},
    ])
    def test_parameter_variants(self, dataset, row_dataset, kwargs):
        assert neighborhood_report(dataset, **kwargs) == neighborhood_report(
            row_dataset, **kwargs
        )

    def test_2020(self, dataset_2020, row_dataset_2020):
        assert neighborhood_report(dataset_2020) == neighborhood_report(
            row_dataset_2020
        )


class TestGeographyParity:
    @pytest.mark.parametrize("aggregate", ["median", "sum"])
    def test_region_profiles(self, dataset, row_dataset, aggregate):
        simulated = build_region_profiles(dataset, aggregate=aggregate)
        reloaded = build_region_profiles(row_dataset, aggregate=aggregate)
        assert simulated == reloaded

    def test_geo_similarity(self, dataset, row_dataset):
        assert geo_similarity(dataset) == geo_similarity(row_dataset)

    def test_most_different_regions(self, dataset, row_dataset):
        assert most_different_regions(dataset) == most_different_regions(row_dataset)

    def test_sum_aggregate(self, dataset, row_dataset):
        """Table 4 over pooled (summed) region profiles, the median-vs-sum
        ablation's arm; pinned with the Counter profiles of
        ``build_region_profiles(aggregate="sum")``."""
        pinned = "5c505cfed4d51e416ae7f2a134929db0241bc148440e95fb87fc2b86ebf1b12a"
        assert digest(most_different_regions(dataset, aggregate="sum")) == pinned
        assert digest(most_different_regions(row_dataset, aggregate="sum")) == pinned

    def test_2020(self, dataset_2020, row_dataset_2020):
        assert geo_similarity(dataset_2020) == geo_similarity(row_dataset_2020)
        assert most_different_regions(dataset_2020) == most_different_regions(
            row_dataset_2020
        )


class TestNetworkParity:
    def test_network_type_report(self, dataset, row_dataset):
        assert network_type_report(dataset) == network_type_report(row_dataset)

    def test_telescope_as_report(self, dataset, row_dataset):
        assert telescope_as_report(dataset) == telescope_as_report(row_dataset)

    def test_2020(self, dataset_2020, row_dataset_2020):
        assert network_type_report(dataset_2020) == network_type_report(
            row_dataset_2020
        )
        assert telescope_as_report(dataset_2020) == telescope_as_report(
            row_dataset_2020
        )


class TestTagParity:
    def test_tag_sources_values_and_order(self, dataset, row_dataset):
        simulated = tag_sources(dataset)
        reloaded = tag_sources(row_dataset)
        assert simulated == reloaded
        # Dict ordering is part of the contract: downstream reports
        # iterate sources in first-observation order.
        assert list(simulated) == list(reloaded)

    def test_tag_distribution(self, dataset, row_dataset):
        assert tag_distribution(tag_sources(dataset)) == tag_distribution(
            tag_sources(row_dataset)
        )

    def test_2020(self, dataset_2020, row_dataset_2020):
        simulated = tag_sources(dataset_2020)
        reloaded = tag_sources(row_dataset_2020)
        assert simulated == reloaded and list(simulated) == list(reloaded)


class TestCampaignParity:
    @pytest.mark.parametrize("min_size", [1, 2, 5])
    def test_min_size_variants(self, dataset, row_dataset, min_size):
        assert infer_campaigns(dataset, min_size=min_size) == infer_campaigns(
            row_dataset, min_size=min_size
        )

    def test_2020(self, dataset_2020, row_dataset_2020):
        assert infer_campaigns(dataset_2020, min_size=2) == infer_campaigns(
            row_dataset_2020, min_size=2
        )


class TestCommandParity:
    @pytest.mark.parametrize("top", [1, 3, 10, 25])
    def test_summary(self, dataset, row_dataset, top):
        simulated = command_summary(dataset, top=top)
        reloaded = command_summary(row_dataset, top=top)
        assert simulated == reloaded
        assert simulated.top_commands == reloaded.top_commands  # order included

    def test_2020(self, dataset_2020, row_dataset_2020):
        assert command_summary(dataset_2020) == command_summary(row_dataset_2020)


class TestLeakParity:
    def test_leak_report(self, dataset, row_dataset):
        assert leak_report(dataset) == leak_report(row_dataset)

    def test_leak_report_alpha(self, dataset, row_dataset):
        assert leak_report(dataset, alpha=0.01) == leak_report(row_dataset, alpha=0.01)

    @pytest.mark.parametrize("port", [22, 23, 80])
    def test_unique_credentials(self, dataset, row_dataset, port):
        simulated = unique_credentials_per_group(dataset, port=port)
        reloaded = unique_credentials_per_group(row_dataset, port=port)
        assert simulated == reloaded
        assert list(simulated) == list(reloaded)


# Memoized per distinct payload: the references below derive every row.
_fingerprint = functools.lru_cache(maxsize=None)(fingerprint)
_strip = functools.lru_cache(maxsize=None)(strip_ephemeral_headers)


def _slice_mask(events, slice_key):
    """Events of one engine slice, by the row-level definitions."""
    ports = [event.dst_port for event in events]
    http = [_fingerprint(event.payload) == "http" for event in events]
    return {
        "ssh22": [port == 22 for port in ports],
        "telnet23": [port == 23 for port in ports],
        "http80": [port == 80 and is_http for port, is_http in zip(ports, http)],
        "http_all": http,
        "any_all": [True] * len(events),
        "port80": [port == 80 for port in ports],
        "popular": [port in POPULAR_PORTS for port in ports],
    }[slice_key]


def _reference_counter(events, characteristic):
    if characteristic == "as":
        return Counter(event.src_asn for event in events)
    if characteristic == "payload":
        return Counter(_strip(event.payload) for event in events if event.payload)
    position = {"username": 0, "password": 1}[characteristic]
    return Counter(pair[position] for event in events for pair in event.credentials)


class TestMatrixInternals:
    """Cheap invariants on the engine itself (not just its callers)."""

    def test_counts_match_counters(self, dataset):
        """Every slice's count tables and event, malicious and login
        vectors equal per-event counts over one vantage's rows, for a
        Cowrie (GreyNoise) vantage with logins, a Honeytrap vantage and
        a leak vantage."""
        engine = dataset.contingency()
        for prefix in ("gn-", "ht-", "leak-"):
            vantage_id = next(
                vid for vid, table in dataset.tables.items()
                if vid.startswith(prefix) and len(table)
                and (prefix != "gn-" or engine.cred_events[engine.row(vid)] > 0)
            )
            row = engine.row(vantage_id)
            events = dataset.tables[vantage_id].materialize()
            assert engine.cred_events[row] == sum(bool(e.credentials) for e in events)
            for slice_key in ENGINE_SLICES:
                mask = _slice_mask(events, slice_key)
                selected = [event for event, keep in zip(events, mask) if keep]
                where = (vantage_id, slice_key)
                assert engine.events[slice_key][row] == len(selected), where
                assert engine.malicious[slice_key][row] == sum(
                    dataset.classifier.is_malicious(event) for event in selected
                ), where
                for characteristic in CHARACTERISTICS:
                    assert engine.counter(slice_key, characteristic, [row]) == (
                        _reference_counter(selected, characteristic)
                    ), (*where, characteristic)
    def test_events_row_sums(self, dataset):
        """Each event carries exactly one AS, so AS-table row sums are
        the per-vantage event counts of the slice."""
        engine = dataset.contingency()
        for slice_key in ("ssh22", "telnet23", "http80", "any_all"):
            table = engine.counts[(slice_key, "as")]
            row_sums = [
                int(table.counts[lo:hi].sum())
                for lo, hi in zip(table.bounds[:-1].tolist(), table.bounds[1:].tolist())
            ]
            np.testing.assert_array_equal(row_sums, engine.events[slice_key])


@pytest.fixture(scope="module")
def reference_counts(dataset):
    """``(values, dense)``: per characteristic its sorted categories, and
    per (slice, characteristic) the dense vantage × category count matrix,
    counted by brute force over every materialized row of the fixture
    (rows in dataset order)."""
    counters = {
        (slice_key, characteristic): [] for slice_key in ENGINE_SLICES
        for characteristic in CHARACTERISTICS
    }
    for table in dataset.tables.values():
        events = list(table.iter_events())
        for slice_key in ENGINE_SLICES:
            mask = _slice_mask(events, slice_key)
            selected = [event for event, keep in zip(events, mask) if keep]
            for characteristic in CHARACTERISTICS:
                counters[(slice_key, characteristic)].append(
                    _reference_counter(selected, characteristic)
                )
    values = {
        characteristic: sorted(set().union(*counters[("any_all", characteristic)]))
        for characteristic in CHARACTERISTICS
    }
    dense = {}
    for (slice_key, characteristic), rows in counters.items():
        column = {value: code for code, value in enumerate(values[characteristic])}
        matrix = np.zeros((len(rows), len(column)), dtype=np.int64)
        for row, counter in enumerate(rows):
            for value, count in counter.items():
                matrix[row, column[value]] = count
        dense[(slice_key, characteristic)] = matrix
    return values, dense


def _arrays(value):
    """Every numpy array reachable from ``value`` through containers and
    object attributes."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _arrays(item)


class TestCountTablesAgainstDenseReference:
    """The row-compressed count store against dense matrices counted by
    brute force from the fixture's rows: every row, sums and medians over
    random row subsets, Counter views, and the store's size."""

    def test_values_are_the_sorted_categories(self, dataset, reference_counts):
        values, _dense = reference_counts
        assert dataset.contingency().values == values

    def test_every_row_vector(self, dataset, reference_counts):
        engine = dataset.contingency()
        _values, dense = reference_counts
        assert set(engine.counts) == set(dense)
        for key, matrix in dense.items():
            for row in range(matrix.shape[0]):
                vector = engine.row_vector(*key, row)
                assert vector.dtype == np.int64
                np.testing.assert_array_equal(vector, matrix[row], err_msg=f"{key} row {row}")

    def test_sums_medians_and_counters_over_random_rows(self, dataset, reference_counts):
        engine = dataset.contingency()
        values, dense = reference_counts
        rng = np.random.default_rng(20231024)
        for key, matrix in dense.items():
            n_rows = matrix.shape[0]
            subsets = [[], [int(rng.integers(n_rows))], list(range(n_rows))]
            subsets += [
                sorted(rng.choice(n_rows, size=size, replace=False).tolist())
                for size in (2, 5, 40, 300)
            ]
            for rows in subsets:
                block = matrix[rows]
                expected_sum = block.sum(axis=0)
                expected_median = (
                    np.median(block.astype(np.float64), axis=0)
                    if rows else np.zeros(matrix.shape[1], dtype=np.float64)
                )
                summed = engine.sum_vector(*key, rows)
                median = engine.median_vector(*key, rows)
                assert summed.dtype == np.int64 and median.dtype == np.float64
                np.testing.assert_array_equal(summed, expected_sum)
                # Same float bits, not merely close.
                assert median.tobytes() == expected_median.tobytes(), (key, len(rows))
                assert engine.counter(*key, rows) == Counter({
                    values[key[1]][code]: int(count)
                    for code, count in enumerate(expected_sum.tolist()) if count
                })

    def test_store_holds_only_nonzero_cells(self, dataset, reference_counts):
        """No vantages × categories array is held: each table's bytes are
        bounded by its nonzero cells (an int32 code and an int64 count
        each) plus one row bound per vantage."""
        engine = dataset.contingency()
        _values, dense = reference_counts
        n_rows = len(engine.vantage_ids)
        for key, matrix in dense.items():
            nonzero = int(np.count_nonzero(matrix))
            held = sum(array.nbytes for array in _arrays(engine.counts[key]))
            assert held <= 12 * nonzero + 8 * (n_rows + 1), (key, held, nonzero)
            assert held < matrix.nbytes, key
        for array in _arrays(engine):
            assert array.ndim == 1, array.shape
