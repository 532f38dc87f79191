"""Traffic-volume statistics for the search-engine leak experiment.

Section 4.3 uses two tests on hourly traffic volumes:

* a **one-sided Mann–Whitney U** test of whether the per-hour volume
  toward leaked services is stochastically greater than toward the
  control group (Table 3 bold entries);
* a **Kolmogorov–Smirnov** test of whether the hourly-volume
  distributions differ at all — upon manual verification the paper
  attributes these differences to *spikes* of traffic (Table 3
  asterisks).

This module provides both, plus hourly binning and a spike detector used
by the analyses and by validation tests.

Both p-values come from small kernels that return, float for float, what
scipy 1.17.1's ``mannwhitneyu(alternative="greater")`` and ``ks_2samp``
return with ``method="auto"``.  Inputs outside the kernels' domain —
non-finite values, more than :data:`_MAX_EXACT_N` observations a side,
unequal sizes for KS, or an exact KS value outside [0, 1] — go to
``scipy.stats`` itself, imported on first use, so no process pays for
importing it on the shipped path (every shipped window is two equal,
168-hour series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "hourly_volumes",
    "VolumeComparison",
    "mann_whitney_greater",
    "kolmogorov_smirnov",
    "compare_volumes",
    "count_spikes",
    "fold_increase",
]


def hourly_volumes(timestamps: Iterable[float], hours: int) -> np.ndarray:
    """Bin event timestamps (fractional hours) into per-hour counts."""
    if hours <= 0:
        raise ValueError("hours must be positive")
    if isinstance(timestamps, np.ndarray):
        array = timestamps.astype(np.float64, copy=False)
    else:
        array = np.fromiter((float(t) for t in timestamps), dtype=np.float64)
    counts, _edges = np.histogram(array, bins=hours, range=(0.0, float(hours)))
    return counts.astype(np.float64)


@dataclass(frozen=True)
class VolumeComparison:
    """Joint result of the Table 3 tests for one leaked/control pair."""

    fold: float
    mwu_p: float
    ks_p: float

    def stochastically_greater(self, alpha: float = 0.05) -> bool:
        """Bold marker: leaked volume stochastically exceeds control."""
        return self.mwu_p < alpha

    def distribution_differs(self, alpha: float = 0.05) -> bool:
        """Asterisk marker: hourly distributions differ (spikes)."""
        return self.ks_p < alpha


#: Largest sample the kernels take: scipy's ``ks_2samp`` computes exact
#: p-values up to this size (``MAX_AUTO_N``), and up to it every rank
#: sum and tie term below is an exact integer in float64.
_MAX_EXACT_N = 10_000


def _scipy_stats():
    """``scipy.stats``, imported only when an input leaves the kernels' domain."""
    from scipy import stats

    return stats


def _in_domain(leaked: np.ndarray, control: np.ndarray) -> bool:
    return (
        max(leaked.size, control.size) <= _MAX_EXACT_N
        and bool(np.isfinite(leaked).all())
        and bool(np.isfinite(control).all())
    )


def _mwu_exact_sf(u1: int, n1: int, n2: int) -> float:
    """P(U >= u1) for untied samples, step for step as scipy's ``_MWU.sf``.

    The U frequencies follow scipy's recursion (``build_u_freqs_array``):
    counts start as uint64, switch to float64 once one outgrows uint64,
    and the tail probability is summed from whichever end is shorter.
    """
    small, large = min(n1, n2), max(n1, n2)
    complement = small * large - u1
    k = min(u1, complement)
    sigma = np.zeros(k + 1, dtype=int)
    for d in range(1, small + 1):
        sigma[d::d] += d
    for d in range(large + 1, large + small + 1):
        sigma[d::d] -= d
    freqs = np.zeros(k + 1, dtype=np.uint64)
    freqs[0] = 1
    for u in range(1, k + 1):
        value = np.dot(freqs[:u], sigma[u:0:-1]) / u
        if freqs.dtype == np.uint64 and value > np.iinfo(np.uint64).max:
            freqs = freqs.astype(float)
        freqs[u] = value
    pmf = freqs / special.binom(small + large, small)
    cdf = np.cumsum(pmf)[k]
    return float(1.0 - cdf + pmf[k]) if u1 < complement else float(cdf)


def _ks_prob_outside_square(n: int, h: int) -> float:
    """Pr(D_{n,n} >= h/n), scipy's Horner form (``_compute_prob_outside_square``)."""
    total = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        total = p1 * (1.0 - total)
    return 2 * total


def mann_whitney_greater(leaked: Sequence[float], control: Sequence[float]) -> float:
    """One-sided MWU p-value: is ``leaked`` stochastically greater?

    Equal, float for float, to ``scipy.stats.mannwhitneyu(leaked,
    control, alternative="greater").pvalue``: the normal approximation
    with tie correction and continuity correction when both samples
    exceed 8 or any value ties, the exact null distribution otherwise.
    """
    leaked = np.asarray(leaked, dtype=np.float64)
    control = np.asarray(control, dtype=np.float64)
    if leaked.size == 0 or control.size == 0:
        return 1.0
    if np.all(leaked == leaked[0]) and np.all(control == leaked[0]):
        return 1.0  # identical constant samples: no evidence either way
    if not _in_domain(leaked, control):
        result = _scipy_stats().mannwhitneyu(leaked, control, alternative="greater")
        return float(result.pvalue)
    n1, n2 = leaked.size, control.size
    ordered = np.sort(np.concatenate((leaked, control)))
    # A value with ``below`` smaller values and ``through`` values at most
    # equal to it has average (1-based) rank (below + through + 1) / 2.
    below = np.searchsorted(ordered, leaked, "left")
    through = np.searchsorted(ordered, leaked, "right")
    u1 = (int(below.sum()) + int(through.sum()) + n1) / 2 - n1 * (n1 + 1) / 2
    ties = np.unique(ordered, return_counts=True)[1]
    if (n1 > 8 and n2 > 8) or ties.size < ordered.size:
        n = n1 + n2
        tie_term = int((ties**3 - ties).sum())
        std = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        p = float(special.ndtr(-((u1 - n1 * n2 / 2 - 0.5) / std)))
    else:
        p = _mwu_exact_sf(int(u1), n1, n2)
    return min(max(p, 0.0), 1.0)


def kolmogorov_smirnov(leaked: Sequence[float], control: Sequence[float]) -> float:
    """Two-sample KS p-value on hourly-volume distributions.

    Equal, float for float, to ``scipy.stats.ks_2samp(leaked,
    control).pvalue``.  Equal-size samples get scipy's exact two-sided
    probability here; unequal sizes, and the exact values scipy rejects
    for leaving [0, 1] (it then uses the asymptotic ``kstwo`` law), are
    scipy's own.
    """
    leaked = np.asarray(leaked, dtype=np.float64)
    control = np.asarray(control, dtype=np.float64)
    if leaked.size == 0 or control.size == 0:
        return 1.0
    n = leaked.size
    if n == control.size and _in_domain(leaked, control):
        leaked_sorted, control_sorted = np.sort(leaked), np.sort(control)
        both = np.concatenate((leaked_sorted, control_sorted))
        diffs = (
            np.searchsorted(leaked_sorted, both, "right") / n
            - np.searchsorted(control_sorted, both, "right") / n
        )
        d_minus, d_plus = min(max(float(-diffs.min()), 0.0), 1.0), float(diffs.max())
        h = round((d_minus if d_minus > d_plus else d_plus) * n)
        if h == 0:
            return 1.0
        p = _ks_prob_outside_square(n, h)
        if 0.0 <= p <= 1.0:
            return p
    return float(_scipy_stats().ks_2samp(leaked, control).pvalue)


def fold_increase(leaked: Sequence[float], control: Sequence[float]) -> float:
    """Mean traffic-per-hour ratio, the headline number of Table 3.

    A zero-traffic control yields ``inf`` when the leaked side saw any
    traffic at all, and 1.0 when neither side did.
    """
    leaked_mean = float(np.mean(leaked)) if len(leaked) else 0.0
    control_mean = float(np.mean(control)) if len(control) else 0.0
    if control_mean == 0.0:
        return float("inf") if leaked_mean > 0 else 1.0
    return leaked_mean / control_mean


def compare_volumes(leaked: Sequence[float], control: Sequence[float]) -> VolumeComparison:
    """Run all three Table 3 measures on a pair of hourly series."""
    return VolumeComparison(
        fold=fold_increase(leaked, control),
        mwu_p=mann_whitney_greater(leaked, control),
        ks_p=kolmogorov_smirnov(leaked, control),
    )


def count_spikes(hourly: Sequence[float], threshold_sigmas: float = 3.0) -> int:
    """Count hours whose volume exceeds mean + k·std.

    The paper observes that leaked services attract more *spikes* —
    brief bursts right after an attacker finds the service in a search
    engine.  A flat series (std = 0) has no spikes by definition.
    """
    array = np.asarray(hourly, dtype=np.float64)
    if array.size == 0:
        return 0
    std = float(array.std())
    if std == 0.0:
        return 0
    cutoff = float(array.mean()) + threshold_sigmas * std
    return int(np.count_nonzero(array > cutoff))
