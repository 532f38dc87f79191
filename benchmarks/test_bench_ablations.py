"""Ablation benchmarks for the methodological choices DESIGN.md calls out.

Each ablation varies one design decision the paper (or this reproduction)
fixes, and prints the quantity that motivates the choice:

* **top-k** — Section 3.3 footnote 2: comparing top-5 instead of top-3
  "increases the number of near-zero frequency variables by over 200%",
  biasing the chi-squared test toward small distributional differences.
* **median vs. sum aggregation** — Section 4.4: regional comparisons use
  the per-category median across a group's honeypots to suppress
  single-target attacker latching.
* **Bonferroni correction** — without it, the neighborhood analysis
  over-reports significant differences.
* **telescope size** — how stable the Table 8 overlap estimates are as
  the telescope shrinks from 64 /24s to 4.
* **transparent firewalls** — Section 7 future work: how much measured
  maliciousness a filtering network hides.
"""

import numpy as np

from benchmarks.conftest import SCALE
from repro.analysis.geography import most_different_regions
from repro.analysis.neighborhoods import neighborhood_report
from repro.analysis.overlap import scanner_overlap
from repro.analysis.dataset import AnalysisDataset
from repro.deployment.fleet import build_full_deployment, build_telescope
from repro.detection.engine import RuleEngine
from repro.honeypots.firewall import FirewalledStack
from repro.reporting.tables import render_table
from repro.scanners.population import PopulationConfig, build_population
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.rng import RngHub
from repro.stats.topk import union_table


def test_bench_ablation_top_k(benchmark, context_2021):
    """k=3 vs k=5 vs k=10: near-zero union-table cells and detection rate."""
    dataset = context_2021.dataset

    def _run():
        rows = []
        for k in (3, 5, 10):
            report = neighborhood_report(dataset, k=k)
            cell = report.cell("ssh22", "as")
            # Count near-zero cells in a representative union table.
            engine = dataset.contingency()
            neighborhoods = dataset.neighborhoods(["aws"], vantage_prefix="gn-")
            counters = {}
            for (network, region), vantages in sorted(neighborhoods.items())[:1]:
                for vantage in vantages:
                    row = engine.row(vantage.vantage_id)
                    counters[vantage.vantage_id] = engine.counter(
                        "ssh22", "as", [row] if row is not None else []
                    )
            table, _g, _c = union_table(counters, k=k)
            near_zero = float((table == 0).mean())
            rows.append((k, f"{cell.percent_different:.0f}%", f"{near_zero:.0%}"))
        return rows

    rows = benchmark.pedantic(_run, rounds=2, iterations=1)
    print()
    print(render_table(
        ["k", "SSH/22 neighborhoods different", "zero cells in union table"],
        rows, title="Ablation: top-k category selection (paper fixes k=3)",
    ))


def test_bench_ablation_median_vs_sum(benchmark, context_2021):
    """Section 4.4's median filtering vs naive pooling."""
    dataset = context_2021.dataset

    def _run():
        out = {}
        for aggregate in ("median", "sum"):
            cells = most_different_regions(dataset, aggregate=aggregate)
            significant = [cell for cell in cells if cell.region is not None]
            out[aggregate] = (
                len(significant),
                float(np.mean([cell.avg_phi for cell in significant])) if significant else 0.0,
            )
        return out

    out = benchmark.pedantic(_run, rounds=2, iterations=1)
    print()
    print(render_table(
        ["aggregation", "significant most-different cells", "mean phi"],
        [(name, count, f"{phi:.2f}") for name, (count, phi) in out.items()],
        title="Ablation: median-across-honeypots (paper) vs raw pooling",
    ))


def test_bench_ablation_bonferroni(benchmark, context_2021):
    """How many neighborhood 'differences' survive multiple-test correction."""
    dataset = context_2021.dataset

    def _run():
        with_correction = neighborhood_report(dataset, bonferroni=True)
        without = neighborhood_report(dataset, bonferroni=False)
        return [
            (
                cell.slice_name,
                cell.characteristic,
                f"{without.cell(cell.slice_name, cell.characteristic).percent_different:.0f}%",
                f"{cell.percent_different:.0f}%",
            )
            for cell in with_correction.cells
            if cell.characteristic in ("as", "payload")
        ]

    rows = benchmark.pedantic(_run, rounds=2, iterations=1)
    print()
    print(render_table(
        ["Slice", "Characteristic", "uncorrected", "Bonferroni-corrected"],
        rows, title="Ablation: Bonferroni correction",
    ))


def test_bench_ablation_telescope_size(benchmark):
    """Table 8 overlap stability as the telescope shrinks."""
    population = build_population(PopulationConfig(year=2021, scale=min(SCALE, 0.3)))

    def _run():
        rows = []
        for slash24s in (4, 16, 64):
            hub = RngHub(31)
            deployment = build_full_deployment(hub, num_telescope_slash24s=slash24s)
            result = run_simulation(deployment, population, SimulationConfig(seed=31))
            dataset = AnalysisDataset.from_simulation(result)
            overlap = {row.port: row.telescope_cloud_pct for row in scanner_overlap(dataset)}
            rows.append((slash24s, f"{overlap[22]:.0f}%", f"{overlap[23]:.0f}%"))
        return rows

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["telescope /24s", "port-22 cloud overlap", "port-23 cloud overlap"],
        rows, title="Ablation: telescope size (Orion is 1,856 /24s)",
    ))


def test_bench_ablation_firewall(benchmark):
    """Transparent upstream filtering hides malicious traffic (Section 7)."""
    population = build_population(PopulationConfig(year=2021, scale=min(SCALE, 0.3)))

    def _run():
        rows = []
        rules = RuleEngine()
        for drop in (0.0, 0.5, 0.9):
            hub = RngHub(17)
            deployment = build_full_deployment(
                hub, num_telescope_slash24s=4, include_leak_experiment=False
            )
            if drop > 0.0:
                for index, vantage in enumerate(deployment.honeypots):
                    deployment.honeypots[index] = type(vantage)(
                        vantage_id=vantage.vantage_id,
                        network=vantage.network,
                        kind=vantage.kind,
                        region_code=vantage.region_code,
                        continent=vantage.continent,
                        ips=vantage.ips,
                        stack=FirewalledStack(vantage.stack, drop, rules, seed=17),
                    )
            result = run_simulation(deployment, population, SimulationConfig(seed=17))
            engine = AnalysisDataset.from_simulation(result).contingency()
            malicious, total = engine.fraction("any_all", range(len(engine.vantage_ids)))
            rows.append((f"{drop:.0%}", total, f"{100.0 * malicious / max(total, 1):.1f}%"))
        return rows

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["firewall drop prob", "captured events", "measured % malicious"],
        rows, title="Ablation: transparent upstream firewalls (Section 7)",
    ))
