"""Determinism-hazard rules (DET001-DET003).

The simulation clock is hour-resolution *simulated* time; run results,
shard merges, and reduce outputs must be functions of (config, seed)
only.  Wall-clock reads, filesystem enumeration order, and set
iteration order are the three ways host state leaks into results.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Rule, register

#: Wall-clock calls: (receiver name, attribute).
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: Directory-enumeration calls whose OS-dependent order must be pinned.
_PATH_LISTING_ATTRS = frozenset({"iterdir", "glob", "rglob"})
_MODULE_LISTING = {("os", "listdir"), ("glob", "glob"), ("glob", "iglob")}

#: Functions whose results feed merged/reduced output: iteration order
#: inside them is part of the result.
_ORDERED_FUNC_MARKERS = ("reduce", "merge", "map_shard")


def _receiver_and_attr(func: ast.AST):
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        # datetime.datetime.now(...) — report the dotted receiver's tail.
        if isinstance(value, ast.Attribute):
            return value.attr, func.attr
    return None, None


@register
class WallClockRule(Rule):
    code = "DET001"
    name = "no wall clock in result paths"
    invariant = (
        "Results are functions of (config, seed): event time comes from "
        "the simulation clock, durations from time.perf_counter; "
        "time.time()/datetime.now() smuggle host time into outputs."
    )
    dynamic_check = "tests/test_sim_goldens.py (same seed, same bytes)"

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            receiver, attr = _receiver_and_attr(node.func)
            if (receiver, attr) in _WALL_CLOCK:
                yield module.finding(
                    self.code, node,
                    f"wall-clock `{receiver}.{attr}()`: use the simulation "
                    "clock for event time or time.perf_counter for durations",
                )


@register
class UnsortedListingRule(Rule):
    code = "DET002"
    name = "directory enumeration must be sorted"
    invariant = (
        "Shard and run-dir discovery feeds merges whose row order is the "
        "result; os.listdir/glob/iterdir order is filesystem-dependent, "
        "so every enumeration is wrapped in sorted(...)."
    )
    dynamic_check = (
        "tests/test_mapreduce.py (shard-wise == single-process row order)"
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            receiver, attr = _receiver_and_attr(node.func)
            listing = None
            if (receiver, attr) in _MODULE_LISTING:
                listing = f"{receiver}.{attr}"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _PATH_LISTING_ATTRS
            ):
                listing = f".{node.func.attr}"
            elif (receiver, attr) == ("os", "scandir"):
                yield module.finding(
                    self.code, node,
                    "os.scandir yields entries in filesystem order: "
                    "use sorted(os.listdir(...)) instead",
                )
                continue
            if listing is None:
                continue
            parent = module.parent(node)
            wrapped = (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"
                and node in parent.args
            )
            if not wrapped:
                yield module.finding(
                    self.code, node,
                    f"unsorted `{listing}(...)`: wrap the call in "
                    "sorted(...) so discovery order is explicit",
                )


def _definitely_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "intersection", "union", "difference", "symmetric_difference",
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _definitely_set(node.left) or _definitely_set(node.right)
    return False


@register
class SetIterationRule(Rule):
    code = "DET003"
    name = "no set iteration in reduce/merge paths"
    invariant = (
        "Reduce and merge outputs must not depend on hash-seed iteration "
        "order; iterate sorted(<set>) (or keep dicts, which preserve "
        "insertion order) inside map_shard/reduce/merge functions."
    )
    dynamic_check = (
        "tests/test_mapreduce.py run under a different PYTHONHASHSEED"
    )

    def check(self, module) -> Iterator[Finding]:
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(marker in scope.name for marker in _ORDERED_FUNC_MARKERS):
                continue
            for node in ast.walk(scope):
                iters = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for candidate in iters:
                    if _definitely_set(candidate):
                        yield module.finding(
                            self.code, candidate,
                            f"iteration over a set inside `{scope.name}`: "
                            "wrap in sorted(...) so the merge order is "
                            "deterministic",
                        )
