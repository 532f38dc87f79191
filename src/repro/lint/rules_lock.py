"""Lock-discipline rule (LCK001).

The serve layer answers queries from the same sketch state an ingest
thread is mutating; correctness rests on one shared lock
(:meth:`repro.serve.backends.LiveBackend.commit` held around each bus
flush on the write side, :meth:`~repro.serve.backends.LiveBackend.handle`
around every computed answer on the read side).  A sketch read that drifts outside
the lock produces torn estimates only under concurrent load — the worst
kind of bug to find dynamically — so the rule demands the guard be
visible lexically: either a ``with <lock>:`` block or an explicit
``@requires_ingest_lock`` marker promising the caller holds it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding, Rule, register

#: Files where analyzer/sketch state crosses threads.
_LOCKED_FILES = ("repro/serve/backends.py",)
_LOCKED_DIRS = ("repro/stream/", "repro/incident/")

#: Instance attributes that hold cross-thread analyzer/sketch state.
_GUARDED_ATTRS = frozenset({
    "analyzer", "tracker", "bus", "dataset", "_counters", "_leak_alarm",
    "pipeline", "_incidents",
})

#: Attribute names that can hold the shared lock.
_LOCK_ATTRS = ("lock", "_lock")


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_self_attrs(init: ast.FunctionDef) -> set[str]:
    assigned: set[str] = set()
    for node in ast.walk(init):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr:
                assigned.add(attr)
    return assigned


def _is_marked(func: ast.AST) -> bool:
    for decorator in getattr(func, "decorator_list", []):
        name = None
        if isinstance(decorator, ast.Name):
            name = decorator.id
        elif isinstance(decorator, ast.Attribute):
            name = decorator.attr
        elif isinstance(decorator, ast.Call):
            inner = decorator.func
            name = getattr(inner, "id", getattr(inner, "attr", None))
        if name == "requires_ingest_lock":
            return True
    return False


@register
class LockDisciplineRule(Rule):
    code = "LCK001"
    name = "sketch reads happen under the ingest lock"
    invariant = (
        "In the serve/stream layer, analyzer and sketch state shared with "
        "the ingest thread is only touched lexically inside `with "
        "self.lock:` (or in helpers marked @requires_ingest_lock whose "
        "callers hold it)."
    )
    dynamic_check = (
        "tests/test_serve.py concurrent live-query tests (torn reads "
        "under parallel ingest)"
    )

    def check(self, module) -> Iterator[Finding]:
        if not (module.matches(*_LOCKED_FILES) or module.in_dir(*_LOCKED_DIRS)):
            return
        for class_def in ast.walk(module.tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            init = next(
                (item for item in class_def.body
                 if isinstance(item, ast.FunctionDef) and item.name == "__init__"),
                None,
            )
            if init is None:
                continue
            assigned = _assigned_self_attrs(init)
            lock_attrs = [attr for attr in _LOCK_ATTRS if attr in assigned]
            if not lock_attrs:
                continue  # the class does not own a lock
            guarded = _GUARDED_ATTRS & assigned
            if not guarded:
                continue
            for method in class_def.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__" or _is_marked(method):
                    continue
                yield from self._check_method(module, method, guarded, lock_attrs)

    def _check_method(self, module, method, guarded, lock_attrs):
        for node in ast.walk(method):
            attr = _self_attr(node)
            if attr not in guarded:
                continue
            if not self._under_lock(module, node, method, lock_attrs):
                yield module.finding(
                    self.code, node,
                    f"`self.{attr}` touched outside `with self."
                    f"{lock_attrs[0]}:` — wrap the access or mark the "
                    "method @requires_ingest_lock",
                )

    @staticmethod
    def _under_lock(module, node, method, lock_attrs) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    attr = _self_attr(item.context_expr)
                    if attr in lock_attrs:
                        return True
            if ancestor is method:
                break
        return False
