"""Tests for the traffic time-series utilities."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    diurnal_strength,
    find_diurnal_sources,
    hourly_matrix,
    spike_hours,
)


class TestSpikeHours:
    def test_flat_series_no_spikes(self):
        assert spike_hours(np.full(168, 3.0)) == []

    def test_single_spike_located(self):
        series = np.full(168, 2.0)
        series[42] = 60.0
        spikes = spike_hours(series)
        assert len(spikes) == 1
        assert spikes[0].hour == 42
        assert spikes[0].magnitude > 10

    def test_empty(self):
        assert spike_hours([]) == []


class TestDiurnalStrength:
    def test_perfect_daily_cycle(self):
        hours = np.arange(168)
        series = 10 + 8 * np.cos(2 * np.pi * hours / 24)
        assert diurnal_strength(series) > 0.8

    def test_uniform_noise_weak(self):
        rng = np.random.default_rng(0)
        series = rng.poisson(10, 168).astype(float)
        assert abs(diurnal_strength(series)) < 0.25

    def test_short_series_zero(self):
        assert diurnal_strength(np.ones(24)) == 0.0

    def test_constant_series_zero(self):
        assert diurnal_strength(np.full(168, 5.0)) == 0.0

    def test_anti_phase_negative(self):
        hours = np.arange(168)
        series = 10 + 8 * np.cos(2 * np.pi * hours / 48)  # 48h period
        assert diurnal_strength(series) < 0.0


class TestOnSimulation:
    def test_hourly_matrix_shape(self, dataset):
        vantage_ids = [v.vantage_id for v in dataset.vantages[:5]]
        matrix = hourly_matrix(dataset, vantage_ids)
        assert matrix.shape == (5, dataset.window.hours)
        total = sum(len(dataset.tables.get(vid, ())) for vid in vantage_ids)
        assert matrix.sum() == total

    def test_diurnal_crawlers_detected(self, dataset):
        """The population's diurnal HTTP crawlers surface in the capture."""
        rhythmic = find_diurnal_sources(dataset, min_events=60, min_strength=0.2)
        assert rhythmic, "diurnal campaigns must be detectable"
        # and their rhythm is genuinely daily, not an artifact: strengths sorted
        strengths = [strength for _ip, strength in rhythmic]
        assert strengths == sorted(strengths, reverse=True)
