"""Deployment-coverage analysis: which vantage points earn their keep?

Section 8 tells researchers to diversify deployments ("there is more
benefit to deploying a honeypot in a unique geographic region in the
Asia Pacific than within the US or EU") but gives no way to quantify a
*specific* fleet.  This module does, treating vantage groups as sets of
observed attacker IPs:

* :func:`group_coverage` — unique attacker IPs per (network, region)
  group, plus each group's *marginal* contribution (attackers nobody
  else saw — what you lose by dropping it);
* :func:`greedy_deployment` — the classic greedy set-cover heuristic:
  in what order should groups be deployed to see the most attackers
  fastest, and how few groups reach a target coverage?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.dataset import AnalysisDataset

__all__ = ["GroupCoverage", "group_coverage", "GreedyStep", "greedy_deployment"]


@dataclass(frozen=True)
class GroupCoverage:
    """Attacker visibility of one (network, region) vantage group."""

    network: str
    region: str
    num_vantages: int
    attackers_seen: int
    marginal_attackers: int  # seen by this group and no other

    @property
    def redundancy(self) -> float:
        """Fraction of this group's attackers other groups also saw."""
        if self.attackers_seen == 0:
            return 1.0
        return 1.0 - self.marginal_attackers / self.attackers_seen


def _attacker_sets(
    dataset: AnalysisDataset, vantage_prefix: Optional[str]
) -> dict[tuple[str, str], set[int]]:
    """Malicious source IPs per (network, region) group, read off the
    dataset coder's §3.2 label."""
    from repro.analysis.contingency_engine import _unique_ints, dataset_coder

    coder = dataset_coder(dataset)
    sets: dict[tuple[str, str], set[int]] = {}
    for key, vantages in dataset.neighborhoods(vantage_prefix=vantage_prefix).items():
        tables = [dataset.tables.get(vantage.vantage_id) for vantage in vantages]
        tables = [table for table in tables if table is not None and len(table)]
        coder.intern(tables)
        parts = [table.src_ip[coder.malicious(table)] for table in tables]
        sets[key] = set(_unique_ints(np.concatenate(parts)).tolist()) if parts else set()
    return sets


def group_coverage(
    dataset: AnalysisDataset, vantage_prefix: Optional[str] = "gn-"
) -> list[GroupCoverage]:
    """Per-group attacker coverage, sorted by marginal contribution."""
    sets = _attacker_sets(dataset, vantage_prefix)
    groups = dataset.neighborhoods(vantage_prefix=vantage_prefix)
    results: list[GroupCoverage] = []
    for key, attackers in sets.items():
        others: set[int] = set()
        for other_key, other_attackers in sets.items():
            if other_key != key:
                others |= other_attackers
        network, region = key
        results.append(
            GroupCoverage(
                network=network,
                region=region,
                num_vantages=len(groups[key]),
                attackers_seen=len(attackers),
                marginal_attackers=len(attackers - others),
            )
        )
    results.sort(key=lambda item: (-item.marginal_attackers, -item.attackers_seen))
    return results


@dataclass(frozen=True)
class GreedyStep:
    """One step of the greedy deployment order."""

    rank: int
    network: str
    region: str
    new_attackers: int
    cumulative_attackers: int
    cumulative_fraction: float


def greedy_deployment(
    dataset: AnalysisDataset,
    vantage_prefix: Optional[str] = "gn-",
    target_fraction: float = 0.95,
    max_steps: Optional[int] = None,
) -> list[GreedyStep]:
    """Greedy set-cover order over vantage groups.

    Stops once ``target_fraction`` of all observed attacker IPs are
    covered (or after ``max_steps``).  The result answers "how small
    could this fleet be?" — and its head is reliably dominated by the
    diverse groups, matching the paper's deployment advice.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    sets = _attacker_sets(dataset, vantage_prefix)
    universe: set[int] = set()
    for attackers in sets.values():
        universe |= attackers
    if not universe:
        return []

    remaining = dict(sets)
    covered: set[int] = set()
    steps: list[GreedyStep] = []
    while remaining:
        key, attackers = max(
            remaining.items(), key=lambda item: (len(item[1] - covered), item[0])
        )
        gain = len(attackers - covered)
        if gain == 0:
            break
        covered |= attackers
        del remaining[key]
        network, region = key
        steps.append(
            GreedyStep(
                rank=len(steps) + 1,
                network=network,
                region=region,
                new_attackers=gain,
                cumulative_attackers=len(covered),
                cumulative_fraction=len(covered) / len(universe),
            )
        )
        if steps[-1].cumulative_fraction >= target_fraction:
            break
        if max_steps is not None and len(steps) >= max_steps:
            break
    return steps
