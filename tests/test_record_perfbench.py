"""The perfbench A/B recorder (``benchmarks/record_perfbench.py``): its
median, quartile and pairs-won arithmetic, and the records it appends."""

from __future__ import annotations

import json

import pytest

from benchmarks.record_perfbench import (
    RECORD_PREFIX,
    build_record,
    main,
    pairs_won,
    summary,
)

SPECS = [
    {"name": "result_s", "unit": "s", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
]


def _capture(tmp_path, name, workload, seed, result_s, rate, failed=0):
    """A perfbench stdout capture: progress lines, the run record, the
    metric line."""
    record = {"workload": workload, "env": {"seed": seed}, "failed": failed}
    metrics = {
        "correct": failed == 0, "failed": failed,
        "metrics": {"result_s": {"value": result_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
    }
    path = tmp_path / name
    path.write_text("pass 1 ...\n" + RECORD_PREFIX + json.dumps(record) + "\n"
                    + json.dumps(metrics) + "\n")
    return str(path)


class TestArithmetic:
    def test_odd_count_median_and_quartiles(self):
        assert summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_even_count_interpolates(self):
        """Inclusive quartiles interpolate at (n - 1)·p: 3.25 and 7.75
        over 1..10, and the median is the mean of the middle two."""
        assert summary([float(v) for v in range(10, 0, -1)]) == {
            "median": 5.5, "q1": 3.25, "q3": 7.75,
        }

    def test_one_value(self):
        assert summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}

    def test_wins_are_strict_and_follow_the_direction(self):
        pairs = [(10.0, 9.0), (10.0, 10.0), (10.0, 11.0), (4.0, 3.0)]
        assert pairs_won(pairs, "lower") == 2
        assert pairs_won(pairs, "higher") == 1


class TestRecords:
    def test_record_fields(self, tmp_path):
        runs = []
        for index, (parent, change) in enumerate([(3.0, 2.0), (1.0, 1.5), (2.0, 1.0)]):
            runs.append((
                ({"workload": "reproduce", "env": {"seed": 1}},
                 {"failed": 0, "metrics": {"result_s": {"value": parent},
                                           "rate": {"value": parent}}}),
                ({"workload": "reproduce", "env": {"seed": 1}},
                 {"failed": index, "metrics": {"result_s": {"value": change},
                                               "rate": {"value": change}}}),
            ))
        record = build_record("abc", "def", runs, SPECS)
        assert (record["workload"], record["commit"], record["parent"]) == (
            "reproduce", "abc", "def")
        assert (record["seed"], record["pairs"]) == (1, 3)
        assert record["failed"] == {"parent": 0, "change": 3}
        result = record["metrics"]["result_s"]
        assert result["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
        assert result["change"] == {"median": 1.5, "q1": 1.25, "q3": 1.75}
        assert result["won"] == 2 and record["metrics"]["rate"]["won"] == 1
        assert result["runs"] == [[3.0, 2.0], [1.0, 1.5], [2.0, 1.0]]
        assert (result["unit"], result["better"]) == ("s", "lower")

    def test_main_appends_one_record_per_workload_and_seed(self, tmp_path):
        benchmark = tmp_path / "BENCHMARK.json"
        benchmark.write_text(json.dumps({"end_to_end": SPECS}))
        output = tmp_path / "BENCH_perfbench.json"
        output.write_text(json.dumps([{"earlier": True}]))
        pairs = []
        for index, (workload, seed) in enumerate(
            [("reproduce", 1), ("sharded", 1), ("reproduce", 1), ("reproduce", 2)]
        ):
            pairs += ["--pair",
                      _capture(tmp_path, f"p{index}", workload, seed, 2.0, 5.0),
                      _capture(tmp_path, f"c{index}", workload, seed, 1.0, 6.0)]
        assert main(["--commit", "abc", "--parent", "def", "--output", str(output),
                     "--benchmark", str(benchmark), *pairs]) == 0
        history = json.loads(output.read_text())
        assert history[0] == {"earlier": True}
        assert [(r["workload"], r["seed"], r["pairs"]) for r in history[1:]] == [
            ("reproduce", 1, 2), ("sharded", 1, 1), ("reproduce", 2, 1),
        ]
        assert all(r["metrics"]["result_s"]["won"] == r["pairs"] for r in history[1:])

    def test_pair_across_workloads_is_refused(self, tmp_path):
        benchmark = tmp_path / "BENCHMARK.json"
        benchmark.write_text(json.dumps({"end_to_end": SPECS}))
        with pytest.raises(ValueError, match="differ in workload or seed"):
            main(["--commit", "a", "--parent", "b", "--benchmark", str(benchmark),
                  "--output", str(tmp_path / "out.json"), "--pair",
                  _capture(tmp_path, "p", "reproduce", 1, 1.0, 1.0),
                  _capture(tmp_path, "c", "reproduce", 2, 1.0, 1.0)])
        assert not (tmp_path / "out.json").exists()
