"""Tests for deterministic RNG streams and the observation window."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import ObservationWindow, WEEK_2020, WEEK_2021, WEEK_2022
from repro.sim.rng import RngHub, session_uniforms, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_distinct_inputs_distinct_outputs(self):
        values = {stable_hash64("scanner", index) for index in range(1000)}
        assert len(values) == 1000

    def test_order_sensitive(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_64_bit_range(self):
        value = stable_hash64("anything")
        assert 0 <= value < (1 << 64)


class TestSessionUniforms:
    def test_equals_the_scalar_hash_per_row(self):
        rng = np.random.default_rng(11)
        src = rng.integers(0, 2**32, 500)
        dst = rng.integers(0, 2**32, 500)
        stamps = np.concatenate([rng.random(495) * 168, [0.0, 5e-5, 1e-4, 2.0000005, 1e15]])
        for prefix in ((3,), (4, "cowrie-login")):
            want = [
                stable_hash64(*prefix, s, d, round(t, 6)) / float(1 << 64)
                for s, d, t in zip(src.tolist(), dst.tolist(), stamps.tolist())
            ]
            assert session_uniforms(prefix, src, dst, stamps).tolist() == want

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert len(session_uniforms((1,), empty, empty, np.zeros(0))) == 0


class TestRngHub:
    def test_same_tag_same_stream(self):
        a = RngHub(7).fork("scanner", 1).integers(0, 1 << 30, 10)
        b = RngHub(7).fork("scanner", 1).integers(0, 1 << 30, 10)
        assert (a == b).all()

    def test_different_tags_different_streams(self):
        hub = RngHub(7)
        a = hub.fork("scanner", 1).integers(0, 1 << 30, 10)
        b = hub.fork("scanner", 2).integers(0, 1 << 30, 10)
        assert not (a == b).all()

    def test_different_seeds_different_streams(self):
        a = RngHub(7).fork("x").integers(0, 1 << 30, 10)
        b = RngHub(8).fork("x").integers(0, 1 << 30, 10)
        assert not (a == b).all()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngHub(-1)

    def test_subhub_streams_disjoint(self):
        hub = RngHub(7)
        child = hub.subhub("region")
        a = hub.fork("x").integers(0, 1 << 30, 10)
        b = child.fork("x").integers(0, 1 << 30, 10)
        assert not (a == b).all()


class TestCoverageMask:
    def test_extremes(self):
        hub = RngHub(7)
        values = np.arange(100, dtype=np.uint64)
        assert hub.coverage_mask("t", values, 1.0).all()
        assert not hub.coverage_mask("t", values, 0.0).any()

    def test_stable_per_pair(self):
        hub = RngHub(7)
        values = np.arange(1000, dtype=np.uint64)
        first = hub.coverage_mask("tag", values, 0.4)
        second = hub.coverage_mask("tag", values, 0.4)
        assert (first == second).all()

    def test_subset_independent_of_context(self):
        """Coverage of an IP must not depend on which other IPs are queried."""
        hub = RngHub(7)
        full = hub.coverage_mask("tag", np.arange(1000, dtype=np.uint64), 0.4)
        half = hub.coverage_mask("tag", np.arange(500, dtype=np.uint64), 0.4)
        assert (full[:500] == half).all()

    def test_fraction_respected_approximately(self):
        hub = RngHub(7)
        values = np.arange(20_000, dtype=np.uint64)
        mask = hub.coverage_mask("tag", values, 0.3)
        assert 0.25 < mask.mean() < 0.35

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            RngHub(7).coverage_mask("t", np.arange(4), 1.5)

    @given(st.integers(min_value=0, max_value=1 << 30), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25)
    def test_different_tags_decorrelate(self, seed, fraction):
        hub = RngHub(seed)
        values = np.arange(2000, dtype=np.uint64)
        a = hub.coverage_mask("a", values, fraction)
        b = hub.coverage_mask("b", values, fraction)
        # Independent masks should agree on roughly f^2 + (1-f)^2 of values.
        expected = fraction**2 + (1 - fraction) ** 2
        assert abs((a == b).mean() - expected) < 0.12


class TestObservationWindow:
    def test_hours(self):
        assert WEEK_2021.hours == 168
        assert ObservationWindow(2021, days=1).hours == 24

    def test_contains(self):
        assert WEEK_2021.contains(0.0)
        assert WEEK_2021.contains(167.99)
        assert not WEEK_2021.contains(168.0)
        assert not WEEK_2021.contains(-0.1)

    def test_hour_edges(self):
        edges = ObservationWindow(2021, days=1).hour_edges()
        assert edges.shape == (25,)
        assert edges[0] == 0 and edges[-1] == 24

    def test_invalid_days(self):
        with pytest.raises(ValueError):
            ObservationWindow(2021, days=0)

    def test_labels(self):
        assert "2020" in str(WEEK_2020)
        assert "2022" in str(WEEK_2022)
