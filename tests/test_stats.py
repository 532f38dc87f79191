"""Tests for the statistical methodology (chi-squared, top-k, volumes)."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.stats.comparisons import bonferroni_alpha, compare_fractions, compare_top_k
from repro.stats.contingency import (
    ChiSquareResult,
    EffectMagnitude,
    chi_square_test,
    cramers_v_magnitude,
)
from repro.stats import volume
from repro.stats.topk import median_counter, top_k, top_k_union, union_table
from repro.stats.volume import (
    compare_volumes,
    count_spikes,
    fold_increase,
    hourly_volumes,
    kolmogorov_smirnov,
    mann_whitney_greater,
)


class TestChiSquare:
    def test_identical_distributions_not_significant(self):
        table = [[50, 30, 20], [50, 30, 20]]
        result = chi_square_test(table)
        assert result.valid
        assert result.p_value > 0.9
        assert not result.significant()

    def test_disjoint_distributions_significant(self):
        table = [[100, 0, 0], [0, 100, 0]]
        result = chi_square_test(table)
        assert result.significant()
        assert result.phi > 0.9

    def test_phi_bounded(self):
        table = [[1000, 0], [0, 1000]]
        result = chi_square_test(table)
        assert 0.0 <= result.phi <= 1.0

    def test_degenerate_tables_invalid(self):
        assert not chi_square_test([[1, 2, 3]]).valid  # one row
        assert not chi_square_test([[1], [2]]).valid  # one column
        assert not chi_square_test([[0, 0], [0, 0]]).valid  # empty

    def test_zero_margins_trimmed(self):
        """A category nobody hit must not poison the test."""
        with_zeros = chi_square_test([[50, 30, 0], [40, 35, 0]])
        without = chi_square_test([[50, 30], [40, 35]])
        assert with_zeros.valid
        assert with_zeros.statistic == pytest.approx(without.statistic)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            chi_square_test([1, 2, 3])

    def test_known_value(self):
        """Cross-checked against scipy's documented example."""
        result = chi_square_test([[10, 10, 20], [20, 20, 20]])
        assert result.statistic == pytest.approx(2.7777777, rel=1e-5)
        assert result.dof == 2

    def test_bonferroni_significance(self):
        result = ChiSquareResult(
            statistic=10.0, p_value=0.01, dof=1, phi=0.3, df_min=1, sample_size=100
        )
        assert result.significant(alpha=0.05, num_comparisons=1)
        assert not result.significant(alpha=0.05, num_comparisons=10)

    def test_invalid_comparisons_count(self):
        result = chi_square_test([[5, 5], [5, 5]])
        with pytest.raises(ValueError):
            result.significant(num_comparisons=0)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=500), min_size=3, max_size=3),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=60)
    def test_result_invariants(self, rows):
        result = chi_square_test(rows)
        if result.valid:
            assert result.statistic >= 0
            assert 0 <= result.p_value <= 1
            assert 0 <= result.phi <= 1

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=500), min_size=3, max_size=3),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=40)
    def test_row_permutation_invariance(self, rows):
        forward = chi_square_test(rows)
        backward = chi_square_test(rows[::-1])
        assert forward.valid == backward.valid
        if forward.valid:
            assert forward.statistic == pytest.approx(backward.statistic)
            assert forward.phi == pytest.approx(backward.phi)


class TestMagnitude:
    def test_df_awareness(self):
        """The same phi is a bigger effect at higher dof (Cohen's w)."""
        assert cramers_v_magnitude(0.3, 1) is EffectMagnitude.MEDIUM
        assert cramers_v_magnitude(0.3, 4) is EffectMagnitude.LARGE

    def test_thresholds_at_df1(self):
        assert cramers_v_magnitude(0.05, 1) is EffectMagnitude.NONE
        assert cramers_v_magnitude(0.15, 1) is EffectMagnitude.SMALL
        assert cramers_v_magnitude(0.35, 1) is EffectMagnitude.MEDIUM
        assert cramers_v_magnitude(0.6, 1) is EffectMagnitude.LARGE

    def test_invalid_df(self):
        assert cramers_v_magnitude(0.5, 0) is EffectMagnitude.NONE


class TestTopK:
    def test_top_k_basic(self):
        counts = Counter(a=5, b=3, c=2, d=1)
        assert top_k(counts, 3) == ["a", "b", "c"]

    def test_top_k_excludes_zeros(self):
        assert top_k(Counter(a=5, b=0), 3) == ["a"]

    def test_top_k_deterministic_ties(self):
        counts = {"x": 2, "y": 2, "z": 2}
        assert top_k(counts, 2) == top_k(dict(reversed(list(counts.items()))), 2)

    def test_top_k_invalid(self):
        with pytest.raises(ValueError):
            top_k(Counter(), 0)

    def test_union(self):
        groups = {"g1": Counter(a=5, b=3), "g2": Counter(c=9, a=1)}
        assert set(top_k_union(groups, 2)) == {"a", "b", "c"}

    def test_union_table_shape_and_restriction(self):
        groups = {
            "g1": Counter(a=5, b=3, tail=100),
            "g2": Counter(a=4, c=9, tail=100),
        }
        table, group_order, categories = union_table(groups, k=2)
        assert table.shape == (2, len(categories))
        # the long tail appears because it is in each group's top-2...
        assert "tail" in categories
        # ...but a category outside everyone's top-k is excluded
        groups["g1"]["rare"] = 1
        _table, _groups, categories = union_table(groups, k=2)
        assert "rare" not in categories

    def test_median_counter(self):
        counters = [Counter(a=1, b=10), Counter(a=3), Counter(a=5, b=2)]
        median = median_counter(counters)
        assert median["a"] == 3
        assert median["b"] == 2  # median of (10, 0, 2)

    def test_median_counter_drops_zero_medians(self):
        counters = [Counter(a=1), Counter(), Counter()]
        assert "a" not in median_counter(counters)

    def test_median_counter_empty(self):
        assert median_counter([]) == Counter()

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=3),
            st.integers(min_value=1, max_value=100),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_top_k_size_bound(self, counts, k):
        result = top_k(counts, k)
        assert len(result) <= k
        assert len(set(result)) == len(result)


class TestComparisons:
    def test_compare_top_k_distinguishes(self):
        same = compare_top_k({"a": Counter(x=50, y=50), "b": Counter(x=50, y=50)})
        different = compare_top_k({"a": Counter(x=100), "b": Counter(y=100)})
        assert not same.significant()
        assert different.significant()

    def test_compare_fractions(self):
        result = compare_fractions({"a": (90, 100), "b": (10, 100)})
        assert result.significant()
        same = compare_fractions({"a": (50, 100), "b": (50, 100)})
        assert not same.significant()

    def test_compare_fractions_validation(self):
        with pytest.raises(ValueError):
            compare_fractions({"a": (5, 3)})

    def test_bonferroni_alpha(self):
        assert bonferroni_alpha(0.05, 10) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            bonferroni_alpha(0.05, 0)


class TestVolumes:
    def test_hourly_volumes(self):
        volumes = hourly_volumes([0.5, 0.7, 3.2, 167.9], 168)
        assert volumes.sum() == 4
        assert volumes[0] == 2 and volumes[3] == 1 and volumes[167] == 1

    def test_hourly_volume_bounds(self):
        with pytest.raises(ValueError):
            hourly_volumes([], 0)

    @given(st.integers(min_value=1, max_value=200),
           st.lists(st.floats(min_value=-3, max_value=203), max_size=60))
    @example(4, [-0.5, 0.5, 3.0, 4.0, 4.5])
    def test_hour_bins_bin_as_numpy_histogram(self, hours, stamps):
        """``hour_bins`` drops what ``np.histogram`` over ``(0, hours)``
        drops and bins the rest as it does, final bin right-closed."""
        edge_cases = [0.0, -0.0, float(hours), np.nextafter(float(hours), 0.0),
                      np.nextafter(float(hours), np.inf), np.nextafter(0.0, -1.0)]
        array = np.asarray(stamps + edge_cases, dtype=np.float64)
        want, _edges = np.histogram(array, bins=hours, range=(0.0, float(hours)))
        bins = volume.hour_bins(array, hours)
        assert np.array_equal(bins >= 0, (array >= 0) & (array <= hours))
        assert np.array_equal(np.bincount(bins[bins >= 0], minlength=hours), want)
        assert np.array_equal(hourly_volumes(array, hours), want.astype(np.float64))

    def test_fold_increase(self):
        assert fold_increase([10.0] * 10, [2.0] * 10) == pytest.approx(5.0)
        assert fold_increase([1.0], []) == float("inf")
        assert fold_increase([], []) == 1.0
        assert fold_increase([5.0], [0.0]) == float("inf")

    def test_mwu_detects_shift(self):
        rng = np.random.default_rng(0)
        control = rng.poisson(2.0, 168).astype(float)
        leaked = rng.poisson(8.0, 168).astype(float)
        assert mann_whitney_greater(leaked, control) < 0.01
        assert mann_whitney_greater(control, leaked) > 0.5

    def test_mwu_identical_constant_samples(self):
        assert mann_whitney_greater([1.0] * 10, [1.0] * 10) == 1.0

    def test_ks_detects_spikes(self):
        control = np.full(168, 2.0)
        leaked = control.copy()
        leaked[10:50] = 20.0  # repeated discovery spikes across the week
        assert kolmogorov_smirnov(leaked, control) < 0.05

    def test_ks_blind_to_tiny_spike_share(self):
        """A 4-hour spike in a week is below KS resolution at n=168 —
        which is why the paper pairs KS with manual spike verification."""
        control = np.full(168, 2.0)
        leaked = control.copy()
        leaked[10:14] = 80.0
        assert kolmogorov_smirnov(leaked, control) > 0.05
        assert count_spikes(leaked) == 4

    def test_empty_series(self):
        assert mann_whitney_greater([], [1.0]) == 1.0
        assert kolmogorov_smirnov([], [1.0]) == 1.0

    def test_count_spikes(self):
        series = np.full(168, 2.0)
        assert count_spikes(series) == 0  # flat: no spikes
        series[50] = 100.0
        assert count_spikes(series) == 1

    def test_compare_volumes_bundle(self):
        rng = np.random.default_rng(1)
        control = rng.poisson(2.0, 168).astype(float)
        leaked = control + 6.0
        comparison = compare_volumes(leaked, control)
        assert comparison.fold > 2.0
        assert comparison.stochastically_greater()

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=100))
    def test_spike_count_bounded(self, series):
        assert 0 <= count_spikes(series) <= len(series)


_SIZES = st.sampled_from([*range(1, 13), 24, 168])


@st.composite
def _hourly_series(draw, size):
    """Counts with ties and zeros, tie-free values, constants, or a
    constant with one spike."""
    shape = draw(st.sampled_from(("counts", "distinct", "constant", "spike")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "counts":
        return rng.poisson(draw(st.sampled_from((0.3, 2.0, 9.0))), size).astype(float)
    if shape == "distinct":
        return rng.standard_exponential(size) * 10.0
    series = np.full(size, float(draw(st.integers(0, 3))))
    if shape == "spike":
        series[draw(st.integers(0, size - 1))] = float(draw(st.integers(4, 200)))
    return series


@st.composite
def _volume_pairs(draw):
    size = draw(_SIZES)
    other = size if draw(st.booleans()) else draw(_SIZES)
    return draw(_hourly_series(size)), draw(_hourly_series(other))


class TestVolumeKernels:
    """``mann_whitney_greater`` and ``kolmogorov_smirnov`` return
    ``scipy.stats``' floats exactly, on the kernels and on the fallback."""

    def test_equal_scipy_on_every_branch(self, monkeypatch):
        fallbacks = []
        stats_module = volume._scipy_stats
        monkeypatch.setattr(
            volume, "_scipy_stats", lambda: fallbacks.append(True) or stats_module()
        )
        seen = set()

        @settings(max_examples=400, deadline=None, database=None)
        @given(_volume_pairs())
        # Untied and small: MWU's exact null distribution.
        @example((np.array([0.5, 2.5, 4.0]), np.array([1.0, 3.0])))
        # n = 7, h = 1: scipy's exact KS value is 1.0000000000000002.
        @example((np.arange(7.0), np.array([0.0, 1, 2, 3, 4, 5, 7])))
        # Equal ECDFs: h = 0.
        @example((np.array([2.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0])))
        def check(pair):
            leaked, control = pair
            before = len(fallbacks)
            mwu_p = mann_whitney_greater(leaked, control)
            assert len(fallbacks) == before  # finite, at most 10,000: always the kernel
            if np.all(leaked == leaked[0]) and np.all(control == leaked[0]):
                assert mwu_p == 1.0
            else:
                expected = scipy_stats.mannwhitneyu(leaked, control, alternative="greater")
                assert mwu_p == float(expected.pvalue)
                ties = np.unique(np.r_[leaked, control]).size < leaked.size + control.size
                exact = min(leaked.size, control.size) <= 8 and not ties
                seen.add("mwu exact" if exact else "mwu asymptotic")

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                expected = scipy_stats.ks_2samp(leaked, control)
                ks_p = kolmogorov_smirnov(leaked, control)
            assert ks_p == float(expected.pvalue)
            fell_back = len(fallbacks) > before
            # scipy warns when it leaves the exact method for ``kstwo``.
            rejected = any("Exact calculation unsuccessful" in str(w.message) for w in caught)
            if leaked.size != control.size:
                assert fell_back
                seen.add("unequal sizes")
            else:
                assert fell_back == rejected
                if rejected:
                    seen.add("ks fallback")
                else:
                    seen.add("ks h=0" if expected.statistic == 0 else "ks exact")

        check()
        assert seen == {
            "mwu exact", "mwu asymptotic", "ks h=0", "ks exact", "ks fallback", "unequal sizes",
        }

    def test_non_finite_input_falls_back(self):
        leaked = np.array([1.0, np.inf, 3.0, 0.0])
        control = np.array([0.0, 1.0, 2.0, 2.0])
        expected = scipy_stats.mannwhitneyu(leaked, control, alternative="greater")
        assert mann_whitney_greater(leaked, control) == float(expected.pvalue)
        assert kolmogorov_smirnov(leaked, control) == float(
            scipy_stats.ks_2samp(leaked, control).pvalue
        )
