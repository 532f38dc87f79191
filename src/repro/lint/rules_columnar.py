"""Columnar-discipline rule (COL001).

The zero-copy shard merge and the one-pass contingency aggregation
hold only while aggregation paths stay on the struct-of-arrays
representation.  A single ``.materialize()`` or ``.iter_events()``
quietly turns an O(1) mmap view into a per-event Python object walk —
correctness survives, the budget does not.  The analysis layer
(``repro/analysis/``, ``repro/experiments/``) holds no row path at all,
so the rule covers those directories whole; elsewhere it covers
``map_shard`` mappers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Rule, register

#: EventTable APIs that materialize per-event Python row objects.
_ROW_APIS = frozenset({"materialize", "iter_events"})

#: Every line under these directories is a columnar path.
_COLUMNAR_DIRS = ("repro/analysis/", "repro/experiments/")


def _is_map_shard(name: str) -> bool:
    return name == "map_shard" or name.endswith("_map_shard")


@register
class ColumnarDisciplineRule(Rule):
    code = "COL001"
    name = "map_shard stays columnar"
    invariant = (
        "the analysis layer (repro/analysis/, repro/experiments/) and "
        "every map_shard mapper aggregate over numpy columns; "
        "row-materializing APIs (.materialize(), .iter_events()) rebuild "
        "per-event objects and forfeit the columnar speedups the "
        "experiment budgets assume."
    )
    dynamic_check = (
        "benchmarks/check_experiment_budget.py (experiment wall-clock "
        "vs simulation budget)"
    )

    def check(self, module) -> Iterator[Finding]:
        if module.in_dir(*_COLUMNAR_DIRS):
            scopes = [(module.tree, "this module")]
        else:
            scopes = [
                (scope, f"`{scope.name}`")
                for scope in ast.walk(module.tree)
                if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_map_shard(scope.name)
            ]
        for scope, where in scopes:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ROW_APIS
                ):
                    yield module.finding(
                        self.code, node,
                        f"row-materializing `.{node.func.attr}()` inside "
                        f"{where}: aggregate over the numpy columns instead",
                    )
