"""RNG-discipline rules (RNG001-RNG003).

Bit-identical N-shard runs — the property the orchestrator, the
map-reduce drivers, and the seed-equivalence suite all certify — hold
only if every random draw flows through the seeded stream registry
(:class:`repro.sim.rng.RngHub`).  A single stray global draw entangles
streams and the property dies silently, surfacing later as a
20-minute seed-equivalence bisect.  These rules kill the stray draw at
lint time instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding, Rule, register

#: The one module allowed to construct generators directly: the registry.
_RNG_REGISTRY_FILES = ("repro/sim/rng.py",)

#: ``np.random.<attr>`` names that are types/constructors, not the
#: module-level global-state API.
_ALLOWED_NP_RANDOM_ATTRS = frozenset({
    "Generator", "SeedSequence", "BitGenerator", "default_rng",
    "PCG64", "Philox", "SFC64", "MT19937",
})


def _np_random_attr(node: ast.AST) -> Optional[str]:
    """``np.random.X`` / ``numpy.random.X`` -> ``"X"``, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


@register
class StdlibRandomRule(Rule):
    code = "RNG001"
    name = "no stdlib random"
    invariant = (
        "All randomness flows through numpy Generators forked from the "
        "seeded stream registry; the stdlib `random` module is global, "
        "unseedable per-stream state."
    )
    dynamic_check = "tests/test_sim_goldens.py (bit-identical reruns)"

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield module.finding(
                            self.code, node,
                            "stdlib `random` is banned: fork a named "
                            "numpy Generator from RngHub instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield module.finding(
                        self.code, node,
                        "stdlib `random` is banned: fork a named "
                        "numpy Generator from RngHub instead",
                    )


@register
class GlobalNumpyRandomRule(Rule):
    code = "RNG002"
    name = "no module-level numpy RNG state"
    invariant = (
        "`np.random.seed`/`np.random.<draw>` mutate interpreter-global "
        "state shared across every component and worker; streams must "
        "be explicit Generator objects."
    )
    dynamic_check = "tests/test_mapreduce.py (N-shard == 1-process)"

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            attr = _np_random_attr(node)
            if attr is not None and attr not in _ALLOWED_NP_RANDOM_ATTRS:
                yield module.finding(
                    self.code, node,
                    f"`np.random.{attr}` uses the global RNG state: "
                    "take a Generator parameter or fork a named stream",
                )


@register
class AdHocGeneratorRule(Rule):
    code = "RNG003"
    name = "default_rng only inside the stream registry"
    invariant = (
        "Generators are constructed in exactly one place (repro/sim/rng.py) "
        "so every stream has a name and a registry-derived seed; ad-hoc "
        "`default_rng(<const>)` seeds silently decouple from the run seed."
    )
    dynamic_check = (
        "tests/test_seed_robustness.py (results must move with the seed)"
    )

    def check(self, module) -> Iterator[Finding]:
        if module.matches(*_RNG_REGISTRY_FILES):
            return
        imported_direct = any(
            isinstance(node, ast.ImportFrom)
            and node.module in ("numpy.random", "numpy")
            and any(alias.name == "default_rng" for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_hit = _np_random_attr(func) == "default_rng" or (
                imported_direct
                and isinstance(func, ast.Name)
                and func.id == "default_rng"
            )
            if is_hit:
                yield module.finding(
                    self.code, node,
                    "`np.random.default_rng` outside repro/sim/rng.py: "
                    "take a Generator parameter, or use "
                    "RngHub.fork/analysis_rng for a named stream",
                )
