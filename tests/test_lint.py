"""Tests for repro.lint: the AST invariant checker.

Three layers:

* per-rule fixtures — each rule family gets a minimal positive source
  (the violation fires), a suppressed variant (``# lint: disable``), and
  a baselined variant (the same finding grandfathered);
* the full pass — the repo's own ``src/`` must be clean against the
  checked-in baseline, and the baseline must stay small;
* the contract — CLI exit codes, the JSON schema, the rule catalog.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import run_lint
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cli import rule_catalog
from repro.lint.engine import SYNTAX_ERROR_CODE

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_tree(root: Path, files: dict[str, str]) -> Path:
    for rel_path, source in files.items():
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return root


# -- one minimal violating source per rule family -----------------------

LOCK_VIOLATION = """\
class LiveBackend:
    def __init__(self, analyzer, lock):
        self._lock = lock
        self.analyzer = analyzer

    def counts(self):
        return self.analyzer.estimate()
"""

FIXTURES = [
    ("RNG001", "repro/analysis/f_rng001.py",
     "import random\n\nVALUE = 3\n"),
    ("RNG002", "repro/analysis/f_rng002.py",
     "import numpy as np\n\nnp.random.seed(1234)\n"),
    ("RNG003", "repro/analysis/f_rng003.py",
     "import numpy as np\n\nrng = np.random.default_rng(7)\n"),
    ("DET001", "repro/analysis/f_det001.py",
     "import time\n\n\ndef stamp():\n    return time.time()\n"),
    ("DET002", "repro/runner/f_det002.py",
     "import os\n\n\ndef shards(root):\n"
     "    return [name for name in os.listdir(root)]\n"),
    ("DET003", "repro/analysis/f_det003.py",
     "def merge_counts(parts):\n    total = 0\n"
     "    for key in {1, 2, 3}:\n        total += key\n    return total\n"),
    ("LCK001", "repro/serve/backends.py", LOCK_VIOLATION),
    ("COL001", "repro/experiments/f_col001.py",
     "def map_shard(view):\n    rows = []\n"
     "    for table in view.tables.values():\n"
     "        rows.extend(table.iter_events())\n    return rows\n"),
    # The X1 pattern: rows materialized from the dataset's tables, in the
    # analysis layer, outside any map_shard.
    ("COL001", "repro/analysis/blocklists.py",
     "def build_blocklist(dataset, vantages):\n    found = set()\n"
     "    for vantage in vantages:\n"
     "        for event in dataset.tables[vantage.vantage_id].materialize():\n"
     "            found.add(event.src_ip)\n    return found\n"),
    # Any analysis module, new ones included, is covered whole-file.
    ("COL001", "repro/analysis/f_col001_rows.py",
     "def per_vantage_rows(dataset):\n"
     "    return {vantage_id: table.materialize()\n"
     "            for vantage_id, table in dataset.tables.items()}\n"),
    ("EXC001", "repro/analysis/f_exc001.py",
     "def load(path):\n    try:\n        return open(path)\n"
     "    except:\n        return None\n"),
    ("EXC002", "repro/runner/f_exc002.py",
     "def poll(step):\n    try:\n        step()\n"
     "    except ValueError:\n        pass\n"),
]


def _fixture_id(index: int) -> str:
    """The rule code; a repeated code adds its fixture's file stem."""
    code, rel_path, _source = FIXTURES[index]
    if any(fixture[0] == code for fixture in FIXTURES[:index]):
        return f"{code}-{Path(rel_path).stem}"
    return code


FIXTURE_IDS = [_fixture_id(index) for index in range(len(FIXTURES))]


class TestRuleFixtures:
    @pytest.mark.parametrize("code,rel_path,source",
                             FIXTURES, ids=FIXTURE_IDS)
    def test_positive(self, tmp_path, code, rel_path, source):
        build_tree(tmp_path, {rel_path: source})
        report = run_lint(tmp_path)
        assert [f.code for f in report.findings] == [code]
        finding = report.findings[0]
        assert finding.path == rel_path
        assert finding.line >= 1
        assert finding.snippet  # the baseline key is never empty

    @pytest.mark.parametrize("code,rel_path,source",
                             FIXTURES, ids=FIXTURE_IDS)
    def test_suppressed(self, tmp_path, code, rel_path, source):
        build_tree(tmp_path, {rel_path: source})
        line = run_lint(tmp_path).findings[0].line
        lines = source.splitlines()
        lines[line - 1] += f"  # lint: disable={code} - fixture"
        build_tree(tmp_path, {rel_path: "\n".join(lines) + "\n"})
        report = run_lint(tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    @pytest.mark.parametrize("code,rel_path,source",
                             FIXTURES, ids=FIXTURE_IDS)
    def test_baselined(self, tmp_path, code, rel_path, source):
        build_tree(tmp_path, {rel_path: source})
        first = run_lint(tmp_path)
        baseline_path = tmp_path.parent / f"{tmp_path.name}-baseline.json"
        write_baseline(baseline_path, first.findings)
        report = run_lint(tmp_path, baseline_entries=load_baseline(baseline_path))
        assert report.findings == []
        assert [f.code for f in report.baselined] == [code]
        assert report.unused_baseline == []

    def test_syntax_error_becomes_finding(self, tmp_path):
        build_tree(tmp_path, {"repro/broken.py": "def broken(:\n    pass\n"})
        report = run_lint(tmp_path)
        assert [f.code for f in report.findings] == [SYNTAX_ERROR_CODE]

    def test_stale_baseline_entry_reported(self, tmp_path):
        code, rel_path, source = FIXTURES[0]
        build_tree(tmp_path, {rel_path: source})
        baseline_path = tmp_path.parent / f"{tmp_path.name}-baseline.json"
        write_baseline(baseline_path, run_lint(tmp_path).findings)
        build_tree(tmp_path, {rel_path: "VALUE = 3\n"})  # violation fixed
        report = run_lint(tmp_path, baseline_entries=load_baseline(baseline_path))
        assert report.findings == []
        assert len(report.unused_baseline) == 1
        assert report.unused_baseline[0]["code"] == code

    def test_baseline_entry_absorbs_exactly_one_finding(self, tmp_path):
        code, rel_path, source = FIXTURES[3]  # DET001: time.time()
        build_tree(tmp_path, {rel_path: source})
        baseline_path = tmp_path.parent / f"{tmp_path.name}-baseline.json"
        write_baseline(baseline_path, run_lint(tmp_path).findings)
        doubled = source + "\n\ndef stamp_again():\n    return time.time()\n"
        build_tree(tmp_path, {rel_path: doubled})
        report = run_lint(tmp_path, baseline_entries=load_baseline(baseline_path))
        # same (path, code, snippet) key twice, one budgeted entry: the
        # duplicated pattern is a fresh violation, not grandfathered.
        assert len(report.baselined) == 1
        assert [f.code for f in report.findings] == [code]


CLEAN_SOURCES = {
    # a Generator parameter is the sanctioned way to take randomness
    "repro/analysis/ok_rng.py":
        "import numpy as np\n\n\ndef draw(rng: np.random.Generator):\n"
        "    return rng.integers(0, 10)\n",
    # the stream registry itself may construct generators
    "repro/sim/rng.py":
        "import numpy as np\n\n\ndef make():\n"
        "    return np.random.default_rng(0)\n",
    # sorted() wrapping makes directory order explicit
    "repro/runner/ok_sorted.py":
        "import os\n\n\ndef shards(root):\n"
        "    return sorted(os.listdir(root))\n",
    # monotonic clocks are fine; only wall clocks are banned
    "repro/analysis/ok_clock.py":
        "import time\n\n\ndef tick():\n    return time.perf_counter()\n",
    # iterating a sorted() of a set is ordered
    "repro/analysis/ok_merge.py":
        "def merge_counts(parts):\n    total = 0\n"
        "    for key in sorted({1, 2, 3}):\n        total += key\n"
        "    return total\n",
    # lock discipline: with-block or the explicit marker
    "repro/serve/backends.py":
        "class LiveBackend:\n"
        "    def __init__(self, analyzer, lock):\n"
        "        self._lock = lock\n"
        "        self.analyzer = analyzer\n\n"
        "    def counts(self):\n"
        "        with self._lock:\n"
        "            return self.analyzer.estimate()\n\n"
        "    @requires_ingest_lock\n"
        "    def _peek(self):\n"
        "        return self.analyzer.estimate()\n",
    # a handler that accounts for the exception is not silent
    "repro/runner/ok_accounted.py":
        "def poll(step, stats):\n    try:\n        step()\n"
        "    except ValueError:\n"
        "        stats['errors'] = stats.get('errors', 0) + 1\n",
}


class TestCleanSources:
    def test_sanctioned_patterns_do_not_fire(self, tmp_path):
        build_tree(tmp_path, CLEAN_SOURCES)
        report = run_lint(tmp_path)
        assert report.findings == []
        assert report.files_scanned == len(CLEAN_SOURCES)


class TestFullPass:
    """The repo's own source must satisfy its own invariants."""

    def test_src_is_clean_against_checked_in_baseline(self):
        src = REPO_ROOT / "src"
        baseline = REPO_ROOT / "lint-baseline.json"
        entries = load_baseline(baseline)
        report = run_lint(src, baseline_entries=entries)
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.unused_baseline == []

    def test_baseline_stays_small(self):
        entries = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert len(entries) <= 5


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        build_tree(tmp_path, {"repro/ok.py": "VALUE = 3\n"})
        assert cli_main(["lint", str(tmp_path), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_deliberate_violation_exits_one(self, tmp_path, capsys):
        build_tree(tmp_path, {
            "repro/experiments/driver.py":
                "import numpy as np\n\nrng = np.random.default_rng(99)\n",
        })
        assert cli_main(["lint", str(tmp_path), "--no-baseline"]) == 1
        assert "RNG003" in capsys.readouterr().out

    def test_missing_target_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        build_tree(tmp_path, {"repro/ok.py": "VALUE = 3\n"})
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "findings": []}', encoding="utf-8")
        assert cli_main(["lint", str(tmp_path), "--baseline", str(bad)]) == 2
        assert "unreadable baseline" in capsys.readouterr().err

    def test_json_report_schema(self, tmp_path, capsys):
        code, rel_path, source = FIXTURES[0]
        build_tree(tmp_path, {rel_path: source})
        assert cli_main(
            ["lint", str(tmp_path), "--format", "json", "--no-baseline"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version", "files_scanned", "suppressed", "findings",
            "baselined", "unused_baseline", "summary",
        }
        assert payload["version"] == 1
        assert payload["summary"] == {code: 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"code", "path", "line", "col",
                                "message", "snippet"}
        assert finding["code"] == code

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        code, rel_path, source = FIXTURES[2]
        build_tree(tmp_path / "pkg", {rel_path: source})
        baseline = tmp_path / "base.json"
        assert cli_main(["lint", str(tmp_path / "pkg"),
                         "--baseline", str(baseline),
                         "--update-baseline"]) == 0
        assert cli_main(["lint", str(tmp_path / "pkg"),
                         "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out


class TestCatalog:
    def test_every_fixture_code_has_a_registered_rule(self):
        codes = {rule["code"] for rule in rule_catalog()}
        assert {fixture[0] for fixture in FIXTURES} <= codes

    def test_every_rule_names_invariant_and_dynamic_check(self):
        for rule in rule_catalog():
            assert rule["invariant"], rule["code"]
            assert rule["dynamic_check"], rule["code"]

    def test_rules_flag_prints_catalog(self, capsys):
        assert cli_main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in rule_catalog():
            assert rule["code"] in out

    def test_readme_documents_every_rule_code(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for rule in rule_catalog():
            assert rule["code"] in readme, (
                f"README.md lacks a row for lint rule {rule['code']}"
            )
