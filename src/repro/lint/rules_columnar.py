"""Columnar-discipline rule (COL001).

The PR 6/7 performance wins (zero-copy shard merge, one-pass
contingency aggregation) hold only while hot aggregation paths stay on
the struct-of-arrays representation.  A single ``.materialize()`` or
``.iter_events()`` inside a ``map_shard`` mapper quietly turns an O(1)
mmap view into a per-event Python object walk — correctness survives,
the budget does not.  ``dataset.events_for(...)`` is the same walk one
call removed: it materializes the vantage's table.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Rule, register

#: APIs that materialize per-event Python row objects: the EventTable
#: ones and the AnalysisDataset grouping helpers built on them.
_ROW_APIS = frozenset({"materialize", "iter_events", "events_for", "events_for_group"})

#: Every function in these files is a hot columnar path.
_COLUMNAR_FILES = (
    "repro/analysis/contingency_engine.py",
    "repro/analysis/blocklists.py",
)


def _is_map_shard(name: str) -> bool:
    return name == "map_shard" or name.endswith("_map_shard")


@register
class ColumnarDisciplineRule(Rule):
    code = "COL001"
    name = "map_shard stays columnar"
    invariant = (
        "map_shard mappers, contingency-engine callees and the blocklist "
        "analyses aggregate over numpy columns; row-materializing APIs "
        "(.materialize(), .iter_events(), .events_for(), "
        ".events_for_group()) rebuild per-event objects and forfeit the "
        "columnar speedups the experiment budgets assume."
    )
    dynamic_check = (
        "benchmarks/check_experiment_budget.py (experiment wall-clock "
        "vs simulation budget)"
    )

    def check(self, module) -> Iterator[Finding]:
        whole_file = module.matches(*_COLUMNAR_FILES)
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (whole_file or _is_map_shard(scope.name)):
                continue
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ROW_APIS
                ):
                    yield module.finding(
                        self.code, node,
                        f"row-materializing `.{node.func.attr}()` inside "
                        f"`{scope.name}`: aggregate over the numpy "
                        "columns instead",
                    )
