"""RL003 — layering: the hot path stays off the oracles and never recompiles.

The interpreted ``PatternMatcher`` (with ``Query.evaluate``) and
``naive_certain_answers`` are the *parity oracles* (see ROADMAP "Standing
conventions"); production code lives in ``repro.engine`` /
``repro.service`` / ``repro.patterns.plan`` and evaluates through compiled
settings and plans.

Inside those layers this rule flags:

* any import of the interpreter oracle (:mod:`repro.patterns.evaluate`
  names — ``PatternMatcher``, ``match_anywhere``, … — or
  ``evaluate_query``/``boolean_query_holds``), and
* calls to functional-API entry points imported from ``repro.exchange``
  **unless** the call passes a ``compiled=`` handle: a bare pipeline call
  compiles the setting before it runs, so on a request path it would
  recompile the setting for every request (and ``naive_certain_answers``,
  an oracle, takes no handle at all).

Modules that *are* oracle plumbing opt out with a reasoned
``# repro-lint: parity-oracle -- …`` marker; tests and benchmarks are out
of scope by module name.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import Finding, ModuleContext, Rule

__all__ = ["LayeringRule"]

#: Layers under the rule.  ``repro.patterns.plan`` is listed exactly —
#: the rest of ``repro.patterns`` (the interpreter itself) is oracle-side.
_RESTRICTED_PREFIXES = ("repro.engine", "repro.service")
_RESTRICTED_EXACT = ("repro.patterns.plan",)

#: The interpreter oracle: importing any of these (or the module that
#: defines them) from a restricted layer is a violation.
_ORACLE_MODULE = "repro.patterns.evaluate"
_ORACLE_NAMES = {"PatternMatcher", "match_anywhere", "match_at_node",
                 "satisfying_assignments", "pattern_holds",
                 "evaluate_query", "boolean_query_holds"}

#: Functional-API entry points (per-request compute): calls must carry a
#: ``compiled=`` keyword inside restricted layers.
_FUNCTIONAL_NAMES = {"certain_answers", "certain_answer_boolean",
                     "naive_certain_answers", "check_consistency",
                     "check_consistency_general",
                     "check_consistency_nested_relational",
                     "canonical_solution", "canonical_pre_solution",
                     "chase", "enumerate_target_trees"}

_FUNCTIONAL_HOMES = ("repro.exchange", "repro")
_ORACLE_HOMES = ("repro.patterns", "repro")


def _restricted(module: str) -> bool:
    return (module.startswith(_RESTRICTED_PREFIXES)
            or module in _RESTRICTED_EXACT)


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` refers to."""
    if not node.level:
        return node.module or ""
    # ``module`` names a module, not a package: level 1 is its package.
    parts = module.split(".")[:-1]
    if node.level > 1:
        parts = parts[:len(parts) - (node.level - 1)]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts)


def _from_home(resolved: str, homes: Tuple[str, ...]) -> bool:
    return any(resolved == home or resolved.startswith(home + ".")
               for home in homes)


class LayeringRule(Rule):
    id = "RL003"
    title = "engine/service/plan layers stay off the parity oracles"
    rationale = ("The interpreted matcher is the parity oracle, and a bare "
                 "functional call compiles its setting on every call; the "
                 "hot path goes through compiled settings and plans.")

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if not _restricted(module.module):
            return
        if module.directives.parity_oracle:
            return
        functional_bindings: Dict[str, str] = {}  # local name -> canonical
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (alias.name == _ORACLE_MODULE
                            or alias.name.startswith(_ORACLE_MODULE + ".")):
                        yield module.finding(
                            self.id, node,
                            f"import of interpreter oracle {alias.name} in "
                            f"layer module {module.module}; evaluate "
                            "through compiled plans, or mark this module "
                            "`# repro-lint: parity-oracle -- why`")
                continue
            if not isinstance(node, ast.ImportFrom):
                continue
            resolved = _resolve_relative(module.module, node)
            if resolved == _ORACLE_MODULE:
                yield module.finding(
                    self.id, node,
                    f"import from {_ORACLE_MODULE} in layer module "
                    f"{module.module}; the interpreter is the parity "
                    "oracle — use repro.patterns.plan, or mark this "
                    "module `# repro-lint: parity-oracle -- why`")
                continue
            if _from_home(resolved, _ORACLE_HOMES):
                for alias in node.names:
                    if alias.name in _ORACLE_NAMES:
                        yield module.finding(
                            self.id, node,
                            f"import of interpreter-oracle name "
                            f"{alias.name} from {resolved} in layer module "
                            f"{module.module}")
            if _from_home(resolved, _FUNCTIONAL_HOMES):
                for alias in node.names:
                    if alias.name in _FUNCTIONAL_NAMES:
                        functional_bindings[alias.asname or alias.name] = \
                            alias.name

        if not functional_bindings:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Name):
                continue
            canonical = functional_bindings.get(func.id)
            if canonical is None:
                continue
            if any(keyword.arg == "compiled" for keyword in node.keywords):
                continue
            yield module.finding(
                self.id, node,
                f"bare functional-API call {canonical}(...) in layer "
                f"module {module.module}: pass compiled=<CompiledSetting> "
                "(a bare pipeline call compiles the setting on every call) "
                "or move the call behind the engine facade")
