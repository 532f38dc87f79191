"""Year-over-year statistical comparison (Appendix C, formalized).

The paper eyeballs its 2020/2021/2022 repeats and narrates "the biggest
difference across the years lie[s] in one-off anomalous scanning events".
This module makes that comparison statistical: it applies the same
Section 3.3 chi-squared machinery *across years* instead of across
vantage points, so temporal drift gets an effect size instead of an
adjective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.dataset import AnalysisDataset
from repro.stats.comparisons import compare_top_k
from repro.stats.contingency import ChiSquareResult

__all__ = ["YearShift", "year_over_year_shift"]

#: Characteristic compared per slice (the "who" axis generalizes best
#: across years; payload vocabularies also drift but are release-coupled).
_DEFAULT_SLICES: tuple[str, ...] = ("ssh22", "telnet23", "http80", "http_all")


@dataclass(frozen=True)
class YearShift:
    """Drift of one slice's top-AS distribution between two datasets."""

    slice_name: str
    result: ChiSquareResult

    @property
    def drifted(self) -> bool:
        return self.result.significant()

    @property
    def phi(self) -> float:
        return self.result.phi


def _pooled_as_counter(dataset: AnalysisDataset, slice_key: str) -> Counter:
    """AS counts over all GreyNoise honeypots, one slice."""
    engine = dataset.contingency()
    rows = [engine.row(vantage.vantage_id) for vantage in dataset.vantages
            if vantage.vantage_id.startswith("gn-")]
    return engine.counter(slice_key, "as", [row for row in rows if row is not None])


def year_over_year_shift(
    first: AnalysisDataset,
    second: AnalysisDataset,
    slices: Sequence[str] = _DEFAULT_SLICES,
) -> list[YearShift]:
    """Compare two years' top-AS distributions per slice.

    Returns one :class:`YearShift` per slice; ``drifted`` marks slices
    whose scanning populations changed significantly between the years.
    """
    shifts: list[YearShift] = []
    for slice_key in slices:
        counters = {
            "first": _pooled_as_counter(first, slice_key),
            "second": _pooled_as_counter(second, slice_key),
        }
        counters = {key: value for key, value in counters.items() if sum(value.values()) > 0}
        if len(counters) < 2:
            continue
        shifts.append(YearShift(slice_key, compare_top_k(counters, k=3)))
    return shifts
