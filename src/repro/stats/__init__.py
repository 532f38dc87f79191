"""Statistical methodology of the paper's Section 3.3 and 4.3."""

from repro.stats.bootstrap import BootstrapCI, bootstrap_proportion, overlap_ci
from repro.stats.comparisons import bonferroni_alpha, compare_fractions, compare_top_k
from repro.stats.contingency import (
    ChiSquareResult,
    EffectMagnitude,
    chi_square_test,
    cramers_v_magnitude,
)
from repro.stats.topk import median_counter, top_k, top_k_union, union_table
from repro.stats.volume import (
    VolumeComparison,
    compare_volumes,
    count_spikes,
    fold_increase,
    hour_bins,
    hourly_volumes,
    kolmogorov_smirnov,
    mann_whitney_greater,
    spike_indices,
)

__all__ = [
    "BootstrapCI", "bootstrap_proportion", "overlap_ci",
    "bonferroni_alpha", "compare_fractions", "compare_top_k",
    "ChiSquareResult", "EffectMagnitude", "chi_square_test", "cramers_v_magnitude",
    "median_counter", "top_k", "top_k_union", "union_table",
    "VolumeComparison", "compare_volumes", "count_spikes", "fold_increase",
    "hour_bins", "hourly_volumes", "kolmogorov_smirnov", "mann_whitney_greater",
    "spike_indices",
]
