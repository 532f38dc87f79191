"""Documentation consistency checks and embedded doctests."""

import doctest
from pathlib import Path

import pytest

import repro.detection.engine
import repro.net.addresses
import repro.sim.rng
from repro.experiments import ALL_EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [repro.net.addresses, repro.sim.rng, repro.detection.engine],
        ids=lambda module: module.__name__,
    )
    def test_module_doctests(self, module):
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
        assert results.attempted > 0, f"no doctests found in {module.__name__}"


class TestDocumentationConsistency:
    def test_experiments_md_covers_every_experiment(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for experiment_id in ALL_EXPERIMENTS:
            assert f"{experiment_id} " in text or f"{experiment_id}:" in text or (
                f"{experiment_id} —" in text
            ) or f"### {experiment_id}" in text or f"{experiment_id} /" in text or (
                f"/ {experiment_id}" in text
            ), f"EXPERIMENTS.md does not document {experiment_id}"

    def test_design_md_mentions_every_package(self):
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for package in ("repro.net", "repro.sim", "repro.scanners", "repro.honeypots",
                        "repro.searchengines", "repro.detection", "repro.deployment",
                        "repro.stats", "repro.analysis", "repro.experiments", "repro.io"):
            assert package in text, f"DESIGN.md does not mention {package}"

    def test_readme_examples_exist(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.startswith("| `examples/"):
                name = line.split("`")[1]
                assert (REPO_ROOT / name).exists(), f"README references missing {name}"

    def test_every_benchmark_has_a_module(self):
        bench_dir = REPO_ROOT / "benchmarks"
        benches = {path.stem for path in bench_dir.glob("test_bench_*.py")}
        # one bench per paper table/figure + extensions + ablations + simulation
        for table in range(1, 18):
            assert f"test_bench_table{table:02d}" in benches
        assert "test_bench_figure01" in benches
        assert "test_bench_method" in benches
        assert "test_bench_ablations" in benches
        assert "test_bench_simulation" in benches

    def test_readme_cli_lines_parse(self):
        """Every README command line (``python -m repro.cli …`` or
        ``cloudwatching …``, backslash continuations joined) is accepted
        by the CLI's argument parser."""
        import shlex

        from repro.cli import _build_parser

        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        text = text.replace("\\\n", " ")
        commands = []
        for line in text.splitlines():
            line = line.strip()
            for prefix in ("python -m repro.cli ", "cloudwatching "):
                if line.startswith(prefix):
                    commands.append(shlex.split(line[len(prefix):], comments=True))
        assert len(commands) >= 23
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit as exit_:
                pytest.fail(f"README command does not parse: {' '.join(argv)} ({exit_})")

    def test_design_md_confirms_paper_identity(self):
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        assert "Paper identity confirmed" in text


class TestYearOverYearShift:
    def test_shift_detects_population_drift(self, small_context, small_context_2020):
        from repro.analysis.temporal import year_over_year_shift

        shifts = year_over_year_shift(small_context_2020.dataset, small_context.dataset)
        assert shifts
        by_slice = {shift.slice_name: shift for shift in shifts}
        # 2020's anomalous single-region SSH campaigns shift the SSH AS mix.
        assert by_slice["ssh22"].drifted

    def test_same_dataset_no_drift(self, small_context):
        from repro.analysis.temporal import year_over_year_shift

        shifts = year_over_year_shift(small_context.dataset, small_context.dataset)
        assert all(not shift.drifted for shift in shifts)
        assert all(shift.phi < 0.01 for shift in shifts)
